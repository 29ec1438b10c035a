(* Stand-alone ABSOLVER executable (the paper's Sec. 4 "stand-alone
   executable" whose input layer is the extended-DIMACS parser).

     absolver solve FILE [--all-models] [--bool-solver lsat|cdcl] ...
     absolver convert MODEL.mdl [--output ok] [-o FILE]
     absolver gen fischer N | sudoku NAME | steering [-o FILE]
     absolver circuit FILE [-o FILE.dot]
*)

module A = Absolver_core
module M = Absolver_model
module F = Absolver_smtlib.Fischer
module S = Absolver_encodings.Sudoku
module P = Absolver_encodings.Puzzles
module Q = Absolver_numeric.Rational
module Telemetry = Absolver_telemetry.Telemetry
module Budget = Absolver_resource.Budget
open Cmdliner

let read_problem path =
  match A.Dimacs_ext.parse_file path with
  | Ok p -> Ok p
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

let registry_of_name = function
  | "lsat" -> Ok A.Registry.default
  | "cdcl" -> Ok A.Registry.with_chaff
  | other -> Error (Printf.sprintf "unknown Boolean solver %S (lsat|cdcl)" other)

let write_or_print output text =
  match output with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.printf "wrote %s\n" path

(* ---- solve ---- *)

let solve_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Problem in extended-DIMACS format.")
  in
  let all_models =
    Arg.(value & flag & info [ "all-models" ] ~doc:"Enumerate every solution (LSAT mode).")
  in
  let limit =
    Arg.(value & opt int 0 & info [ "limit" ] ~docv:"N"
           ~doc:"Stop after N solutions in --all-models mode (0 = no limit).")
  in
  let bool_solver =
    Arg.(value & opt string "lsat" & info [ "bool-solver" ] ~docv:"NAME"
           ~doc:"Boolean solver: lsat (incremental all-solutions) or cdcl (restarting zChaff-like).")
  in
  let minimize =
    Arg.(value & flag & info [ "minimize-conflicts" ]
           ~doc:"Deletion-filter linear conflict sets to minimal cores.")
  in
  let no_presolve =
    Arg.(value & flag & info [ "no-presolve" ]
           ~doc:"Disable the presolve layer (SAT inprocessing, LP presolve, \
                 interval propagation); exact pre-presolve engine behaviour.")
  in
  let no_incremental =
    Arg.(value & flag & info [ "no-incremental" ]
           ~doc:"Disable the incremental LP session (warm-started simplex \
                 with constraint-delta assert/retract); every linear check \
                 solves from scratch. Verdicts are identical either way.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print statistics.") in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print a per-phase statistics summary (span timings, solver \
                 counters) after the verdict, without the --verbose noise.")
  in
  let stats_json =
    Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE"
           ~doc:"Write aggregated statistics (run stats, counters, per-span \
                 timings) to FILE as one JSON object.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Stream a JSONL telemetry trace to FILE: one object per line \
                 (meta, nested spans with per-span counter deltas, events, \
                 final counter totals). Analyse with $(b,absolver trace).")
  in
  let metrics_file =
    Arg.(value & opt (some string) None & info [ "metrics-file" ] ~docv:"FILE"
           ~doc:"Write the run's telemetry (counters, latency and work \
                 histograms, per-span totals) to FILE in Prometheus \
                 text-exposition format at exit.")
  in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Wall-clock deadline (monotonic clock). A run cut short \
                 answers unknown (timeout) with partial statistics and \
                 exits 0: resource exhaustion is a graceful outcome, not \
                 an error.")
  in
  let max_steps =
    Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N"
           ~doc:"Abstract work budget: total solver steps (CDCL search \
                 iterations, simplex pivots, contraction rounds) before \
                 the run degrades to unknown.")
  in
  let mem_budget =
    Arg.(value & opt (some int) None & info [ "mem-budget" ] ~docv:"WORDS"
           ~doc:"Approximate allocation budget in heap words (measured via \
                 the GC's minor counters) before the run degrades to \
                 unknown.")
  in
  let run file all_models limit bool_solver minimize no_presolve no_incremental
      verbose stats_flag stats_json trace metrics_file timeout
      max_steps mem_budget =
    match (read_problem file, registry_of_name bool_solver) with
    | Error e, _ | _, Error e ->
      prerr_endline e;
      1
    | Ok problem, Ok registry ->
      let trace_oc = Option.map open_out trace in
      let tel =
        if stats_flag || stats_json <> None || trace_oc <> None
           || metrics_file <> None then
          Telemetry.create ?trace:trace_oc ()
        else Telemetry.disabled
      in
      let budget =
        if timeout = None && max_steps = None && mem_budget = None then
          Budget.unlimited
        else
          Budget.create ?deadline_seconds:timeout ?max_steps
            ?max_words:mem_budget ()
      in
      let options =
        {
          A.Engine.default_options with
          A.Engine.minimize_conflicts = minimize;
          use_presolve = not no_presolve;
          use_incremental = not no_incremental;
          telemetry = tel;
          budget;
        }
      in
      (* Shared epilogue: metrics file, human summary, JSON dump, trace
         flush. *)
      let finish stats =
        Telemetry.close tel;
        (match metrics_file with
        | None -> ()
        | Some path ->
          let oc = open_out path in
          output_string oc (Absolver_telemetry.Prometheus.render tel);
          close_out oc);
        if stats_flag then begin
          Format.printf "%a@." A.Engine.pp_run_stats stats;
          if Telemetry.enabled tel then
            Format.printf "%a@." Telemetry.pp_summary tel
        end;
        (match stats_json with
        | None -> ()
        | Some path ->
          let oc = open_out path in
          output_string oc
            (Telemetry.Json.obj
               [
                 ("run_stats", A.Engine.run_stats_json stats);
                 ("telemetry", Telemetry.stats_json tel);
               ]);
          output_char oc '\n';
          close_out oc);
        Option.iter close_out trace_oc
      in
      if all_models then begin
        let limit = if limit <= 0 then max_int else limit in
        match A.Engine.all_models ~registry ~options ~limit problem with
        | Error e ->
          Option.iter close_out trace_oc;
          prerr_endline ("error: " ^ e);
          1
        | Ok (models, stats) ->
          Printf.printf "%d solution(s)\n" (List.length models);
          (match stats.A.Engine.budget_exhausted with
          | Some e ->
            Printf.printf "stopped early (%s); the enumeration is partial\n"
              (Absolver_resource.Absolver_error.to_string e)
          | None -> ());
          List.iteri
            (fun i sol ->
              Format.printf "@[<v>-- solution %d:@,%a@]@." (i + 1)
                (A.Solution.pp problem) sol)
            models;
          if verbose then Format.printf "%a@." A.Engine.pp_run_stats stats;
          finish stats;
          0
      end
      else begin
        let result, stats = A.Engine.solve ~registry ~options problem in
        Format.printf "%a@." (A.Engine.pp_result problem) result;
        if verbose then Format.printf "%a@." A.Engine.pp_run_stats stats;
        finish stats;
        match result with
        | A.Engine.R_sat _ -> 0
        | A.Engine.R_unsat -> 20
        | A.Engine.R_unknown _ ->
          (* Running out of budget is the requested behaviour, not a
             failure: exit 0 so timed batch runs don't read as errors. *)
          if stats.A.Engine.budget_exhausted <> None then 0 else 30
      end
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Decide an AB-problem (extended DIMACS).")
    Term.(
      const run $ file $ all_models $ limit $ bool_solver $ minimize
      $ no_presolve $ no_incremental $ verbose $ stats_flag
      $ stats_json $ trace $ metrics_file $ timeout $ max_steps $ mem_budget)

(* ---- convert ---- *)

let convert_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL"
           ~doc:"Simulink-like textual model (see Simulink_text).")
  in
  let output_sig =
    Arg.(value & opt string "" & info [ "output-signal" ] ~docv:"NAME"
           ~doc:"Outport to analyse (default: the first one).")
  in
  let witness =
    Arg.(value & flag & info [ "witness" ]
           ~doc:"Assert the output itself instead of its negation.")
  in
  let emit_lustre =
    Arg.(value & flag & info [ "lustre" ] ~doc:"Print the LUSTRE-like intermediate form instead.")
  in
  let out = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE") in
  let run file output_sig witness emit_lustre out =
    match M.Simulink_text.parse_file file with
    | Error e ->
      prerr_endline e;
      1
    | Ok (name, diagram) -> (
      match M.Lustre.of_diagram ~name diagram with
      | Error e ->
        prerr_endline e;
        1
      | Ok node ->
        if emit_lustre then begin
          write_or_print out (M.Lustre.to_string node);
          0
        end
        else begin
          let output_sig =
            if output_sig <> "" then output_sig
            else
              match node.M.Lustre.outputs with
              | o :: _ -> o
              | [] -> ""
          in
          let goal = if witness then `Find_witness else `Find_violation in
          match M.Convert.node_to_ab ~goal ~output:output_sig node with
          | Error e ->
            prerr_endline e;
            1
          | Ok problem ->
            write_or_print out (A.Dimacs_ext.to_string problem);
            0
        end)
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Convert a Simulink-like model to ABSOLVER input (Fig. 3 work-flow).")
    Term.(const run $ file $ output_sig $ witness $ emit_lustre $ out)

(* ---- gen ---- *)

let gen_cmd =
  let what =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KIND"
           ~doc:"fischer | sudoku | steering | sudoku-baseline")
  in
  let param =
    Arg.(value & pos 1 string "" & info [] ~docv:"PARAM"
           ~doc:"fischer: process count; sudoku: instance name.")
  in
  let rounds = Arg.(value & opt int 6 & info [ "rounds" ] ~docv:"K") in
  let smt =
    Arg.(value & flag & info [ "smt" ] ~doc:"For fischer: emit SMT-LIB 1.2 text instead.")
  in
  let out = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE") in
  let run what param rounds smt out =
    let emit problem =
      write_or_print out (A.Dimacs_ext.to_string problem);
      0
    in
    match what with
    | "fischer" -> (
      match int_of_string_opt param with
      | None ->
        prerr_endline "fischer needs a process count";
        1
      | Some n ->
        if smt then begin
          write_or_print out (Absolver_smtlib.Ast.to_string (F.benchmark ~rounds ~n ()));
          0
        end
        else (
          match F.problem ~rounds ~n () with
          | Ok p -> emit p
          | Error e ->
            prerr_endline e;
            1))
    | "sudoku" | "sudoku-baseline" -> (
      match P.find param with
      | None ->
        Printf.eprintf "unknown puzzle %S; available:\n" param;
        List.iter (fun (n, _) -> prerr_endline ("  " ^ n)) P.all;
        1
      | Some puzzle ->
        emit
          (if what = "sudoku" then S.absolver_problem puzzle
           else S.baseline_problem puzzle))
    | "steering" -> emit (M.Steering.problem ())
    | other ->
      Printf.eprintf "unknown generator %S\n" other;
      1
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate benchmark instances in ABSOLVER's input format.")
    Term.(const run $ what $ param $ rounds $ smt $ out)

(* ---- circuit ---- *)

let circuit_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let out = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"DOT") in
  let run file out =
    match read_problem file with
    | Error e ->
      prerr_endline e;
      1
    | Ok problem ->
      let circuit = A.Ab_problem.to_circuit problem in
      let name v = A.Ab_problem.arith_var_name problem v in
      write_or_print out (Absolver_circuit.Circuit.to_dot ~arith_name:name circuit);
      0
  in
  Cmd.v
    (Cmd.info "circuit"
       ~doc:"Render a problem's internal circuit representation (Fig. 5) as GraphViz.")
    Term.(const run $ file $ out)

(* ---- serve ---- *)

let serve_cmd =
  let module Server = Absolver_server.Server in
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
      ~doc:"Listen on a Unix-domain socket at $(docv) (default: serve one session on stdin/stdout).")
  in
  let max_clients =
    Arg.(value & opt int Server.default_config.Server.max_clients
      & info [ "max-clients" ] ~docv:"N" ~doc:"Concurrent connection cap.")
  in
  let default_timeout =
    Arg.(value & opt int 30_000 & info [ "default-timeout" ] ~docv:"MS"
      ~doc:"Per-request deadline in milliseconds when the request names none; 0 disables it.")
  in
  let workers =
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N"
      ~doc:"Solver worker domains (default: a machine-sized pool).")
  in
  let client_cap =
    Arg.(value & opt int Server.default_config.Server.client_cap
      & info [ "client-cap" ] ~docv:"N"
      ~doc:"Pending requests admitted per client before rejection.")
  in
  let queue_capacity =
    Arg.(value & opt int Server.default_config.Server.queue_capacity
      & info [ "queue-capacity" ] ~docv:"N"
      ~doc:"Global executor queue bound (admission backstop).")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
      ~doc:"Stream a JSONL request trace to $(docv): every solve/smt2 \
            request records a span tree tagged with a minted trace id, \
            echoed in the response. Analyse with $(b,absolver trace).")
  in
  let slow_log =
    Arg.(value & opt (some string) None & info [ "slow-log" ] ~docv:"FILE"
      ~doc:"Append a structured JSONL record (op, verdict, latency, budget \
            outcome, trace id) for every request at or over the \
            $(b,--slow-ms) threshold.")
  in
  let slow_ms =
    Arg.(value & opt float Server.default_config.Server.slow_ms
      & info [ "slow-ms" ] ~docv:"MS" ~doc:"Slow-query threshold for $(b,--slow-log).")
  in
  let metrics_file =
    Arg.(value & opt (some string) None & info [ "metrics-file" ] ~docv:"FILE"
      ~doc:"Write the server aggregate in Prometheus text-exposition format \
            to $(docv) at shutdown (live scraping uses the $(b,metrics) op).")
  in
  let idle_timeout =
    Arg.(value & opt float 300.0 & info [ "idle-timeout" ] ~docv:"SECONDS"
      ~doc:"Reclaim a connection after this much inactivity (counted from \
            the last byte received or reply written; suspended while the \
            connection has a request in flight). 0 disables it.")
  in
  let read_deadline =
    Arg.(value & opt float 30.0 & info [ "read-deadline" ] ~docv:"SECONDS"
      ~doc:"A frame, once its first byte arrived, must complete within \
            $(docv) or the connection is reclaimed. 0 disables it.")
  in
  let max_frame_bytes =
    Arg.(value & opt int (64 * 1024 * 1024) & info [ "max-frame-bytes" ] ~docv:"BYTES"
      ~doc:"Cap on one request frame; an oversized frame gets one framed \
            error reply and the connection is closed, so adversarial input \
            cannot exhaust memory. 0 removes the cap.")
  in
  let run socket max_clients default_timeout workers client_cap queue_capacity
      trace slow_log slow_ms metrics_file idle_timeout read_deadline
      max_frame_bytes =
    let trace_oc = Option.map open_out trace in
    let slow_oc =
      Option.map
        (fun p -> open_out_gen [ Open_append; Open_creat ] 0o644 p)
        slow_log
    in
    let config =
      {
        Server.default_config with
        Server.max_clients;
        client_cap;
        queue_capacity;
        workers =
          (match workers with
          | Some w -> max 1 w
          | None -> Server.default_config.Server.workers);
        default_timeout_ms =
          (if default_timeout > 0 then Some default_timeout else None);
        io =
          {
            Absolver_server.Io.idle_timeout_s =
              (if idle_timeout > 0.0 then Some idle_timeout else None);
            read_deadline_s =
              (if read_deadline > 0.0 then Some read_deadline else None);
            max_frame_bytes =
              (if max_frame_bytes > 0 then max_frame_bytes else max_int);
          };
        trace = trace_oc;
        slow_log = slow_oc;
        slow_ms;
      }
    in
    let srv = Server.create ~config () in
    let stop _ = Server.request_stop srv in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let finish code =
      (match metrics_file with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (Server.metrics_text srv);
        close_out oc);
      Option.iter close_out trace_oc;
      Option.iter close_out slow_oc;
      code
    in
    match socket with
    | Some path -> (
      match Server.serve_socket srv ~path with
      | Ok () ->
        Server.shutdown srv;
        finish 0
      | Error e ->
        prerr_endline ("serve: " ^ e);
        Server.shutdown srv;
        finish 1)
    | None ->
      Server.serve_channel srv stdin stdout;
      Server.shutdown srv;
      finish 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the solve server: line-delimited JSON or SMT-LIB 2 over \
             stdin/stdout or a Unix-domain socket.")
    Term.(
      const run $ socket $ max_clients $ default_timeout $ workers $ client_cap
      $ queue_capacity $ trace $ slow_log $ slow_ms $ metrics_file
      $ idle_timeout $ read_deadline $ max_frame_bytes)

(* ---- client ---- *)

let client_cmd =
  let module Client = Absolver_client.Client in
  let socket =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
      ~doc:"The server's Unix-domain socket.")
  in
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
      ~doc:"SMT-LIB 2 script to run (default: read stdin).")
  in
  let attempts =
    Arg.(value & opt int Client.default_config.Client.max_attempts
      & info [ "attempts" ] ~docv:"N"
      ~doc:"Tries per command (the first included) before giving up.")
  in
  let request_timeout =
    Arg.(value & opt float Client.default_config.Client.request_timeout_s
      & info [ "request-timeout" ] ~docv:"SECONDS"
      ~doc:"Reply deadline per attempt; expiry triggers a retry.")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N"
      ~doc:"Backoff-jitter PRNG seed (same seed, same retry schedule).")
  in
  let journal_solves =
    Arg.(value & flag & info [ "journal-solves" ]
      ~doc:"Also replay check-sat/get-model commands after a reconnect, \
            reconstructing the server's warm solver state exactly.")
  in
  let metrics_file =
    Arg.(value & opt (some string) None & info [ "metrics-file" ] ~docv:"FILE"
      ~doc:"Write client-side counters (retries, reconnects, replayed \
            commands) in Prometheus text-exposition format to $(docv) at exit.")
  in
  let run socket file attempts request_timeout seed journal_solves metrics_file =
    let script =
      match file with
      | Some path ->
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      | None -> In_channel.input_all stdin
    in
    let config =
      {
        Client.default_config with
        Client.max_attempts = max 1 attempts;
        request_timeout_s = request_timeout;
        seed;
        journal_solves;
      }
    in
    let write_metrics cl =
      match metrics_file with
      | None -> ()
      | Some path ->
        (* written directly, not via Telemetry: zero-valued counters
           must still be present so scrapes see the family *)
        let oc = open_out path in
        List.iter
          (fun (name, v) ->
            Printf.fprintf oc "# TYPE %s counter\n%s %d\n" name name v)
          [
            ("absolver_client_retries_total", Client.retries cl);
            ("absolver_client_reconnects_total", Client.reconnects cl);
            ( "absolver_client_replayed_commands_total",
              Client.replayed cl );
          ];
        close_out oc
    in
    match Client.connect ~config ~path:socket () with
    | Error e ->
      prerr_endline ("client: " ^ e);
      1
    | Ok cl -> (
      match Client.run_script cl script with
      | Ok replies ->
        List.iter print_endline replies;
        write_metrics cl;
        Client.close cl;
        0
      | Error e ->
        prerr_endline ("client: " ^ e);
        write_metrics cl;
        Client.close cl;
        1)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Run an SMT-LIB 2 script against a solve server through the \
             fault-tolerant session client: transport faults are retried \
             with seeded backoff, and a dropped connection is rebuilt by \
             replaying the command journal.")
    Term.(
      const run $ socket $ file $ attempts $ request_timeout $ seed
      $ journal_solves $ metrics_file)

(* ---- trace ---- *)

let trace_cmd =
  let module T = Absolver_tracetool.Tracetool in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"JSONL trace written by $(b,solve --trace) or $(b,serve --trace).")
  in
  let tree = Arg.(value & flag & info [ "tree" ] ~doc:"Print only the span trees.") in
  let aggregates_flag =
    Arg.(value & flag & info [ "aggregates" ] ~doc:"Print only the per-name aggregates.")
  in
  let critical =
    Arg.(value & flag & info [ "critical-path" ]
           ~doc:"Print only each root's critical path (longest-duration \
                 child chain).")
  in
  let folded_flag =
    Arg.(value & flag & info [ "folded" ]
           ~doc:"Print flamegraph-ready folded stacks (self time in \
                 microseconds) and nothing else; pipe to flamegraph.pl.")
  in
  let trace_id =
    Arg.(value & opt (some string) None & info [ "trace-id" ] ~docv:"ID"
           ~doc:"Restrict to one request's span tree (the trace id echoed \
                 in the server's response).")
  in
  let max_depth =
    Arg.(value & opt int max_int & info [ "max-depth" ] ~docv:"N"
           ~doc:"Truncate printed trees below depth N.")
  in
  let run file tree aggregates_flag critical folded_flag trace_id max_depth =
    match T.load file with
    | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      1
    | Ok t ->
      let roots = T.roots ?trace_id t in
      (match (trace_id, roots) with
      | Some tid, [] ->
        Printf.eprintf "no spans tagged with trace id %s\n" tid
      | _ -> ());
      if folded_flag then
        List.iter
          (fun (stack, us) -> Printf.printf "%s %d\n" stack us)
          (T.folded ?trace_id t)
      else begin
        let explicit = tree || aggregates_flag || critical in
        let show_summary = not explicit in
        let show_tree = tree || not explicit in
        let show_aggs = aggregates_flag || not explicit in
        let show_crit = critical || not explicit in
        if show_summary then print_string (T.render_summary t);
        if show_tree then
          List.iter
            (fun root ->
              if show_summary then print_newline ();
              print_string (T.render_tree ~max_depth t root))
            roots;
        if show_aggs then begin
          if show_summary then print_newline ();
          print_string (T.render_aggregates t)
        end;
        if show_crit then
          List.iter
            (fun root ->
              if show_summary then print_newline ();
              print_string (T.render_critical_path t root))
            roots
      end;
      if T.unresolved t = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Analyse a JSONL telemetry trace: span trees, per-name \
             aggregates, critical paths, folded stacks.")
    Term.(
      const run $ file $ tree $ aggregates_flag $ critical $ folded_flag
      $ trace_id $ max_depth)

let main =
  let doc = "ABSOLVER: an extensible multi-domain constraint solver (DATE'07 reproduction)" in
  Cmd.group
    (Cmd.info "absolver" ~version:"1.0.0" ~doc)
    [ solve_cmd; convert_cmd; gen_cmd; circuit_cmd; serve_cmd; client_cmd; trace_cmd ]

let () = exit (Cmd.eval' main)
