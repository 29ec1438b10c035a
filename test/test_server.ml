(* The solve server: differential replay against the direct engine
   (byte-identical verdicts and models through a warm per-client
   session), session isolation between interleaved clients, the
   SMT-LIB 2 front-end's scoping and error recovery, the executor's
   admission control, and the JSON layer. *)

module Server = Absolver_server.Server
module Sjson = Absolver_server.Sjson
module Protocol = Absolver_server.Protocol
module Smt2 = Absolver_smtlib.Smt2
module Smt_parser = Absolver_smtlib.Parser
module Fischer = Absolver_smtlib.Fischer
module Pool = Absolver_server.Pool
module Engine = Absolver_core.Engine
module Registry = Absolver_core.Registry
module Dimacs = Absolver_core.Dimacs_ext
module Budget = Absolver_resource.Budget

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ------------------------------------------------------------------ *)
(* In-process connections: a pipe pair per direction, the server's     *)
(* reader on its own thread — the same code path a socket client hits. *)
(* ------------------------------------------------------------------ *)

type conn = {
  wr : out_channel;
  rd : in_channel;
  th : Thread.t;
  mutable open_ : bool;
}

let connect srv =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr req_r in
  let oc = Unix.out_channel_of_descr resp_w in
  let th =
    Thread.create
      (fun () ->
        Server.serve_channel srv ic oc;
        (try close_in ic with Sys_error _ -> ());
        try close_out oc with Sys_error _ -> ())
      ()
  in
  {
    wr = Unix.out_channel_of_descr req_w;
    rd = Unix.in_channel_of_descr resp_r;
    th;
    open_ = true;
  }

let send conn line =
  output_string conn.wr line;
  output_char conn.wr '\n';
  flush conn.wr

let recv conn = input_line conn.rd

(* Close our writing end (server sees EOF), join, drain stragglers. *)
let finish conn =
  if conn.open_ then begin
    conn.open_ <- false;
    (try close_out conn.wr with Sys_error _ -> ());
    Thread.join conn.th;
    let rest = ref [] in
    (try
       while true do
         rest := input_line conn.rd :: !rest
       done
     with End_of_file | Sys_error _ -> ());
    (try close_in conn.rd with Sys_error _ -> ());
    List.rev !rest
  end
  else []

(* One request in, one response out (lane FIFO makes this exact). *)
let roundtrip conn line =
  send conn line;
  recv conn

let field name resp =
  match Sjson.parse resp with
  | Ok obj -> Sjson.member name obj
  | Error e -> Alcotest.failf "unparseable response %s: %s" resp e

let str_field name resp = Option.bind (field name resp) Sjson.get_string

(* A test server: no default deadline (pure cancellation budgets), so
   the reference runs below are governed identically. *)
let test_config ?(workers = 2) ?(max_clients = 32) () =
  {
    Server.default_config with
    Server.workers;
    max_clients;
    default_timeout_ms = None;
  }

let with_server ?config f =
  let config =
    match config with Some c -> c | None -> test_config ()
  in
  let srv = Server.create ~config () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> f srv)

(* ------------------------------------------------------------------ *)
(* Differential replay: seeded query scripts through the server vs     *)
(* the engine called directly through an equivalent warm session.      *)
(* ------------------------------------------------------------------ *)

let gen_problem st =
  let nv = 2 + Random.State.int st 2 in
  let coef () = 1 + Random.State.int st 5 in
  let rhs () = Random.State.int st 15 - 5 in
  let op () =
    match Random.State.int st 4 with
    | 0 -> "<="
    | 1 -> ">="
    | 2 -> "<"
    | _ -> ">"
  in
  let defs =
    List.init nv (fun i ->
        Printf.sprintf "c def real %d %d*x + %d*y %s %d" (i + 1) (coef ())
          (coef ()) (op ()) (rhs ()))
  in
  let ncl = 1 + Random.State.int st 3 in
  let clauses =
    List.init ncl (fun _ ->
        let lits =
          List.filter_map
            (fun v ->
              match Random.State.int st 3 with
              | 0 -> Some (string_of_int (v + 1))
              | 1 -> Some (string_of_int (-(v + 1)))
              | _ -> None)
            (List.init nv Fun.id)
        in
        let lits = if lits = [] then [ "1" ] else lits in
        String.concat " " lits ^ " 0")
  in
  Printf.sprintf "p cnf %d %d\n%s\n%s\n" nv ncl
    (String.concat "\n" clauses)
    (String.concat "\n" defs)

let solve_request id text =
  Sjson.to_string
    (Sjson.Obj
       [
         ("id", Sjson.Num (float_of_int id));
         ("op", Sjson.Str "solve");
         ("format", Sjson.Str "dimacs");
         ("problem", Sjson.Str text);
       ])

(* Canonical outcome of one query, shared by both sides: verdicts and
   models must match byte for byte. *)
let outcome_of_response resp =
  check (Alcotest.option string_t) "status ok" (Some "ok")
    (str_field "status" resp);
  match str_field "verdict" resp with
  | Some "sat" -> "sat " ^ Option.get (str_field "model" resp)
  | Some v -> v
  | None -> Alcotest.failf "no verdict in %s" resp

let outcome_of_direct prob result =
  match result with
  | Engine.R_sat sol -> "sat " ^ Protocol.model_to_string prob sol
  | Engine.R_unsat -> "unsat"
  | Engine.R_unknown _ -> "unknown"

(* The reference replays the script the way the server does: one warm
   persistent-simplex session for the whole script.  A second reference
   with the vanilla registry (fresh session per solve) guards the
   warm-session path against verdict flips. *)
let reference_outcomes texts =
  let solver, dispose = Registry.persistent_simplex () in
  let registry = { Registry.default with Registry.linear = solver } in
  let outcomes =
    List.map
      (fun text ->
        match Dimacs.parse_string text with
        | Error e -> Alcotest.failf "reference parse: %s" e
        | Ok prob ->
          let result, _ = Engine.solve ~registry prob in
          outcome_of_direct prob result)
      texts
  in
  dispose ();
  outcomes

let vanilla_verdicts texts =
  List.map
    (fun text ->
      match Dimacs.parse_string text with
      | Error e -> Alcotest.failf "vanilla parse: %s" e
      | Ok prob -> (
        match fst (Engine.solve prob) with
        | Engine.R_sat _ -> "sat"
        | Engine.R_unsat -> "unsat"
        | Engine.R_unknown _ -> "unknown"))
    texts

let test_differential_replay () =
  let n_scripts = 200 in
  let st = Random.State.make [| 0x5e47e4 |] in
  with_server (fun srv ->
      for script = 1 to n_scripts do
        let n_queries = 3 + Random.State.int st 3 in
        let texts = List.init n_queries (fun _ -> gen_problem st) in
        let conn = connect srv in
        let served =
          List.mapi
            (fun i text ->
              outcome_of_response (roundtrip conn (solve_request (i + 1) text)))
            texts
        in
        ignore (finish conn);
        let expected = reference_outcomes texts in
        List.iteri
          (fun i (got, want) ->
            if got <> want then
              Alcotest.failf "script %d query %d: server %s <> direct %s"
                script (i + 1) got want)
          (List.combine served expected);
        (* cross-check: warm sessions never flip a verdict *)
        List.iteri
          (fun i (got, vanilla) ->
            let verdict =
              match String.index_opt got ' ' with
              | Some j -> String.sub got 0 j
              | None -> got
            in
            if verdict <> "unknown" && vanilla <> "unknown"
               && verdict <> vanilla then
              Alcotest.failf "script %d query %d: warm %s <> vanilla %s"
                script (i + 1) verdict vanilla)
          (List.combine served (vanilla_verdicts texts))
      done)

(* Concurrent clients must each answer exactly what they get on a
   private connection: the per-client session state (warm tableau,
   interned variables) must not leak across lanes.  With [threads] off
   the clients take turns request by request on one thread; with it on,
   each client runs on its own thread and pipelines its whole script
   before reading any reply. *)
let check_clients_isolated ~clients ~threads =
  let n = 10 in
  let scripts =
    Array.init clients (fun c ->
        let st = Random.State.make [| 11 + (12 * c) |] in
        Array.init n (fun i -> solve_request (i + 1) (gen_problem st)))
  in
  let isolated script =
    with_server (fun srv ->
        let conn = connect srv in
        let out = Array.map (roundtrip conn) script in
        ignore (finish conn);
        out)
  in
  let expected = Array.map isolated scripts in
  let got = Array.map (fun _ -> Array.make n "") scripts in
  with_server (fun srv ->
      let conns = Array.map (fun _ -> connect srv) scripts in
      if threads then
        Array.mapi
          (fun c conn ->
            Thread.create
              (fun () ->
                Array.iter (send conn) scripts.(c);
                Array.iteri (fun i _ -> got.(c).(i) <- recv conn) scripts.(c))
              ())
          conns
        |> Array.iter Thread.join
      else
        for i = 0 to n - 1 do
          Array.iteri
            (fun c conn -> got.(c).(i) <- roundtrip conn scripts.(c).(i))
            conns
        done;
      Array.iter (fun conn -> ignore (finish conn)) conns);
  Array.iteri
    (fun c want ->
      check
        (Alcotest.array string_t)
        (Printf.sprintf "%d clients: client %d unaffected by the others" clients c)
        want got.(c))
    expected

let test_interleaved_clients_isolated () =
  check_clients_isolated ~clients:2 ~threads:false;
  check_clients_isolated ~clients:4 ~threads:true

(* ------------------------------------------------------------------ *)
(* Server behaviours: admission, timeouts, stats, smt2 framing.        *)
(* ------------------------------------------------------------------ *)

let test_max_clients_rejected () =
  with_server ~config:(test_config ~max_clients:1 ()) (fun srv ->
      let c1 = connect srv in
      (* make sure c1 is registered before racing c2 in *)
      let r = roundtrip c1 {|{"id":1,"op":"health"}|} in
      check (Alcotest.option string_t) "c1 healthy" (Some "ok")
        (str_field "status" r);
      let c2 = connect srv in
      let rejected = recv c2 in
      check (Alcotest.option string_t) "c2 rejected" (Some "rejected")
        (str_field "status" rejected);
      ignore (finish c2);
      ignore (finish c1))

let test_timeout_degrades_to_unknown () =
  (* a 1 ms deadline on a non-trivial instance: the reply must be a
     graceful unknown, not a dropped connection *)
  let prob =
    match Fischer.problem ~n:3 () with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let text = Dimacs.to_string prob in
  with_server (fun srv ->
      let conn = connect srv in
      let req =
        Sjson.to_string
          (Sjson.Obj
             [
               ("id", Sjson.Num 1.);
               ("op", Sjson.Str "solve");
               ("format", Sjson.Str "dimacs");
               ("problem", Sjson.Str text);
               ("timeout_ms", Sjson.Num 1.);
             ])
      in
      let resp = roundtrip conn req in
      check (Alcotest.option string_t) "ok" (Some "ok") (str_field "status" resp);
      check (Alcotest.option string_t) "unknown" (Some "unknown")
        (str_field "verdict" resp);
      check bool_t "has reason" true (str_field "reason" resp <> None);
      (* the session survives the trip *)
      let r2 =
        roundtrip conn
          (solve_request 2 "p cnf 1 1\n1 0\nc def real 1 u >= 1\n")
      in
      check (Alcotest.option string_t) "next query sat" (Some "sat")
        (str_field "verdict" r2);
      ignore (finish conn))

let test_stats_and_health_track_queries () =
  with_server (fun srv ->
      let conn = connect srv in
      ignore (roundtrip conn (solve_request 1 "p cnf 1 1\n1 0\nc def real 1 u >= 1\n"));
      ignore (roundtrip conn (solve_request 2 "p cnf 1 2\n1 0\n-1 0\nc def real 1 u >= 1\n"));
      let resp = roundtrip conn {|{"id":3,"op":"stats"}|} in
      let stats = Option.get (field "stats" resp) in
      let get path =
        match path with
        | [ a ] -> Option.get (Sjson.member a stats)
        | [ a; b ] -> Option.get (Sjson.member b (Option.get (Sjson.member a stats)))
        | _ -> assert false
      in
      check (Alcotest.option int_t) "solve count" (Some 2)
        (Sjson.get_int (get [ "queries"; "solve" ]));
      check (Alcotest.option int_t) "sat" (Some 1)
        (Sjson.get_int (get [ "verdicts"; "sat" ]));
      check (Alcotest.option int_t) "unsat" (Some 1)
        (Sjson.get_int (get [ "verdicts"; "unsat" ]));
      check bool_t "latency recorded" true
        (Sjson.get_int (Option.get (Sjson.member "count" (get [ "latency_ms" ])))
        = Some 2);
      check bool_t "queue depth gauge present" true
        (match Sjson.get_int (get [ "pool"; "queue_depth" ]) with
        | Some d -> d >= 0
        | None -> false);
      ignore (finish conn))

(* ------------------------------------------------------------------ *)
(* Observability: the metrics op's Prometheus text, request tracing.   *)
(* ------------------------------------------------------------------ *)

(* A line-level Prometheus text-format check mirroring
   scripts/check_prometheus.py: TYPEd families, parseable samples,
   cumulative histogram buckets capped by a +Inf bucket = _count. *)
let validate_prometheus text =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  check bool_t "metrics nonempty" true (lines <> []);
  let types = Hashtbl.create 16 in
  let samples = ref [] in
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ]
          when List.mem kind [ "counter"; "gauge"; "histogram" ] ->
          Hashtbl.replace types name kind
        | _ -> Alcotest.failf "bad comment line: %s" line
      end
      else begin
        let name_part, value_part =
          match String.rindex_opt line ' ' with
          | Some i ->
            ( String.sub line 0 i,
              String.sub line (i + 1) (String.length line - i - 1) )
          | None -> Alcotest.failf "no value: %s" line
        in
        (match value_part with
        | "+Inf" | "-Inf" | "NaN" -> ()
        | v ->
          if float_of_string_opt v = None then
            Alcotest.failf "unparseable value %s in: %s" v line);
        let name, label =
          match String.index_opt name_part '{' with
          | Some i ->
            if name_part.[String.length name_part - 1] <> '}' then
              Alcotest.failf "unterminated labels: %s" line;
            ( String.sub name_part 0 i,
              String.sub name_part (i + 1) (String.length name_part - i - 2) )
          | None -> (name_part, "")
        in
        String.iter
          (fun c ->
            let ok =
              (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
              || (c >= '0' && c <= '9') || c = '_' || c = ':'
            in
            if not ok then Alcotest.failf "bad metric name char in: %s" line)
          name;
        samples := (name, label, value_part) :: !samples
      end)
    lines;
  let samples = List.rev !samples in
  (* every sample belongs to a TYPEd family *)
  let family name =
    let strip suff =
      let n = String.length name and s = String.length suff in
      if n > s && String.sub name (n - s) s = suff then
        Some (String.sub name 0 (n - s))
      else None
    in
    let base =
      List.find_map strip [ "_bucket"; "_sum"; "_count" ]
      |> Option.value ~default:name
    in
    if Hashtbl.mem types base then base
    else if Hashtbl.mem types name then name
    else Alcotest.failf "sample without TYPE: %s" name
  in
  List.iter (fun (n, _, _) -> ignore (family n)) samples;
  (* histogram series: cumulative buckets, +Inf present and = _count *)
  Hashtbl.iter
    (fun name kind ->
      if kind = "histogram" then begin
        let buckets =
          List.filter_map
            (fun (n, l, v) ->
              if n = name ^ "_bucket" then Some (l, float_of_string v)
              else None)
            (List.map
               (fun (n, l, v) ->
                 (n, l, (if v = "+Inf" then "inf" else v)))
               samples)
        in
        check bool_t (name ^ " has buckets") true (buckets <> []);
        let le_of label =
          (* le="..." -> the bound, +Inf as infinity *)
          match String.split_on_char '"' label with
          | [ "le="; b; "" ] ->
            if b = "+Inf" then infinity else float_of_string b
          | _ -> Alcotest.failf "bad bucket label %s on %s" label name
        in
        let sorted =
          List.sort compare (List.map (fun (l, v) -> (le_of l, v)) buckets)
        in
        let rec cumulative = function
          | (_, a) :: ((_, b) :: _ as rest) ->
            check bool_t (name ^ " buckets cumulative") true (a <= b);
            cumulative rest
          | _ -> ()
        in
        cumulative sorted;
        let inf_count =
          match List.rev sorted with
          | (le, v) :: _ when le = infinity -> v
          | _ -> Alcotest.failf "%s missing +Inf bucket" name
        in
        let total =
          match
            List.find_opt (fun (n, _, _) -> n = name ^ "_count") samples
          with
          | Some (_, _, v) -> float_of_string v
          | None -> Alcotest.failf "%s missing _count" name
        in
        check bool_t (name ^ " +Inf = count") true (inf_count = total);
        check bool_t (name ^ " has _sum") true
          (List.exists (fun (n, _, _) -> n = name ^ "_sum") samples)
      end)
    types

let test_metrics_op_prometheus () =
  with_server (fun srv ->
      let conn = connect srv in
      ignore (roundtrip conn (solve_request 1 "p cnf 1 1\n1 0\nc def real 1 u >= 1\n"));
      ignore (roundtrip conn (solve_request 2 "p cnf 1 2\n1 0\n-1 0\nc def real 1 u >= 1\n"));
      let resp = roundtrip conn {|{"id":3,"op":"metrics"}|} in
      let text =
        match str_field "metrics" resp with
        | Some t -> t
        | None -> Alcotest.failf "no metrics payload in %s" resp
      in
      validate_prometheus text;
      let contains needle =
        let n = String.length text and m = String.length needle in
        let rec at i =
          i + m <= n && (String.sub text i m = needle || at (i + 1))
        in
        at 0
      in
      check bool_t "request counter" true
        (contains "absolver_server_solve_total 2");
      check bool_t "latency histogram buckets" true
        (contains "absolver_server_latency_ms_bucket{le=");
      check bool_t "queue-wait histogram" true
        (contains "absolver_server_queue_wait_ms_count 2");
      check bool_t "per-span seconds" true
        (contains "absolver_span_seconds_total{span=\"server.request\"}");
      ignore (finish conn))

module TT = Absolver_tracetool.Tracetool

let nonlinear_unsat_text =
  "p cnf 1 1\n1 0\nc def real 1 x * x + y * y <= 1\nc def real 1 x * y >= 2\n\
   c bound x -10 10\nc bound y -10 10\n"

let test_traced_request_single_tree () =
  (* one traced query through the full server stack — reader thread,
     executor lane, branch-and-prune — must produce exactly one
     connected span tree, stitched by the echoed trace id *)
  let path = Filename.temp_file "absolver_srvtrace" ".jsonl" in
  let oc = open_out path in
  let config = { (test_config ()) with Server.trace = Some oc } in
  with_server ~config (fun srv ->
      let conn = connect srv in
      let resp = roundtrip conn (solve_request 1 nonlinear_unsat_text) in
      check (Alcotest.option string_t) "unsat" (Some "unsat")
        (str_field "verdict" resp);
      let tid =
        match str_field "trace_id" resp with
        | Some tid -> tid
        | None -> Alcotest.failf "no trace_id echoed in %s" resp
      in
      check bool_t "span_id echoed" true (field "span_id" resp <> None);
      ignore (finish conn);
      (* end_request flushed the sink before the reply line was written,
         so the file is complete for this request already *)
      let t =
        match TT.load path with
        | Ok t -> t
        | Error e -> Alcotest.failf "trace load: %s" e
      in
      check int_t "no unresolved parents" 0 (List.length (TT.unresolved t));
      (match TT.roots ~trace_id:tid t with
      | [ r ] ->
        check string_t "root is the request span" "server.request"
          r.TT.sp_name;
        check bool_t "request attrs" true
          (List.mem_assoc "op" r.TT.sp_attrs);
        (* the engine's solve span hangs under the request root *)
        check bool_t "solve under request" true
          (List.exists
             (fun sp -> sp.TT.sp_name = "solve")
             (TT.children t r.TT.sp_id))
      | other ->
        Alcotest.failf "expected 1 root for %s, got %d" tid
          (List.length other));
      (* every span written belongs to this request's trace *)
      check bool_t "single trace id in file" true (TT.trace_ids t = [ tid ]);
      List.iter
        (fun sp ->
          check bool_t "span tagged with the trace id" true
            (sp.TT.sp_trace = Some tid))
        (TT.spans t));
  close_out_noerr oc;
  Sys.remove path

(* The slow-query log carries each request's own counters: two clients
   solving different Fischer unrollings concurrently (one reachable
   deadline per request, the other unreachable) log exactly the
   counters the same requests log alone. *)
let test_slow_log_counters () =
  let fischer quarters =
    Sjson.to_string
      (Sjson.Obj
         [
           ("id", Sjson.Num (float_of_int quarters));
           ("op", Sjson.Str "solve");
           ("format", Sjson.Str "smt1");
           ( "problem",
             Sjson.Str
               (Absolver_smtlib.Ast.to_string
                  (Fischer.benchmark
                     ~property:(Fischer.Cs_within
                       (Absolver_numeric.Rational.of_ints quarters 4))
                     ~n:3 ())) );
         ])
  in
  let sat = List.map fischer [ 9; 10; 11; 12 ]
  and unsat = List.map fischer [ 2; 3; 4; 5 ] in
  (* Each script on its own connection, pipelined; returns every
     slow-log line's verdict and counters object. *)
  let run scripts =
    let path = Filename.temp_file "absolver_slow" ".jsonl" in
    let oc = open_out path in
    let config =
      { (test_config ()) with Server.slow_log = Some oc; slow_ms = 0. }
    in
    with_server ~config (fun srv ->
        let conns = List.map (fun _ -> connect srv) scripts in
        List.iter2 (fun c script -> List.iter (send c) script) conns scripts;
        List.iter2
          (fun c script ->
            List.iter (fun _ -> ignore (recv c)) script;
            ignore (finish c))
          conns scripts);
    close_out oc;
    let ic = open_in path in
    let lines = In_channel.input_all ic |> String.split_on_char '\n' in
    close_in ic;
    Sys.remove path;
    List.filter_map
      (fun l ->
        if l = "" then None
        else
          match field "counters" l with
          | Some c -> Some (str_field "verdict" l, Sjson.to_string c)
          | None -> Alcotest.failf "no counters in %s" l)
      lines
  in
  let sat_alone = run [ sat ] and unsat_alone = run [ unsat ] in
  let both = run [ sat; unsat ] in
  let logged = Alcotest.(list (pair (option string) string)) in
  let with_verdict v = List.filter (fun (v', _) -> v' = Some v) both in
  check int_t "one line per request" 8 (List.length both);
  check logged "sat client: same counters as alone" sat_alone
    (with_verdict "sat");
  check logged "unsat client: same counters as alone" unsat_alone
    (with_verdict "unsat");
  let pivots (_, c) =
    match
      Option.bind (Result.to_option (Sjson.parse c)) (Sjson.member "lp.pivots")
    with
    | Some (Sjson.Num n) -> n > 0.
    | _ -> false
  in
  check bool_t "both clients pivot" true
    (List.exists pivots sat_alone && List.exists pivots unsat_alone)

let test_smt2_framing_over_connection () =
  with_server (fun srv ->
      let conn = connect srv in
      send conn "(set-logic QF_LRA)";
      send conn "(declare-const x Real)";
      send conn "(assert (and (>= x 2)";
      send conn "        (<= x 2)))";
      send conn "(check-sat)";
      check string_t "sat" "sat" (recv conn);
      send conn "(get-model)";
      check string_t "model" "(model (define-fun x () Real 2))" (recv conn);
      send conn "(exit)";
      ignore (finish conn))

(* ------------------------------------------------------------------ *)
(* SMT-LIB 2 front-end units (no server).                              *)
(* ------------------------------------------------------------------ *)

let run_script script =
  let session = Smt2.create () in
  fst (Smt2.run_string session ~check:(Smt2.engine_check ()) script)

let test_smt2_push_pop_scoping () =
  let out =
    run_script
      "(declare-const x Real)(assert (>= x 10))(push 1)(assert (<= x 5))\
       (check-sat)(pop 1)(check-sat)(get-model)"
  in
  check (Alcotest.list string_t) "pop restores satisfiability"
    [ "unsat"; "sat"; "(model (define-fun x () Real 10))" ]
    out

let test_smt2_pop_below_stack () =
  let out = run_script "(push 1)(pop 2)(check-sat)" in
  check (Alcotest.list string_t) "pop too deep is an error, session lives"
    [ "(error \"pop below the assertion stack\")"; "sat" ]
    out

let test_smt2_malformed_recovery () =
  let out =
    run_script
      "(declare-const x Real)(assert y)(assert (>= x 1))\
       (check-sat)(assert (foo"
  in
  check (Alcotest.list string_t) "errors answered, later commands fine"
    [
      "(error \"unknown constant y\")";
      "sat";
      "(error \"incomplete input\")";
    ]
    out

let test_smt2_bool_equality_is_iff () =
  let out =
    run_script
      "(declare-const p Bool)(declare-const q Bool)(assert (= p q))\
       (assert p)(check-sat)(get-model)"
  in
  check (Alcotest.list string_t) "= on Bool resolves to iff"
    [
      "sat";
      "(model (define-fun p () Bool true) (define-fun q () Bool true))";
    ]
    out

let test_smt2_let_and_ite () =
  let out =
    run_script
      "(declare-const x Real)(declare-const p Bool)\
       (assert (let ((t (+ x 1))) (>= t 4)))\
       (assert (ite p (<= x 3) (<= x 100)))(assert p)(check-sat)(get-model)"
  in
  check (Alcotest.list string_t) "let inlined, formula-ite lowered"
    [
      "sat";
      "(model (define-fun x () Real 3) (define-fun p () Bool true))";
    ]
    out

let test_smt2_duplicate_declaration () =
  let out = run_script "(declare-const x Real)(declare-const x Bool)" in
  check (Alcotest.list string_t) "redeclaration refused"
    [ "(error \"x is already declared\")" ]
    out

let test_smt2_get_model_needs_sat () =
  let out = run_script "(declare-const x Real)(get-model)" in
  check (Alcotest.list string_t) "no model before check-sat"
    [ "(error \"model is not available\")" ]
    out;
  let out =
    run_script
      "(declare-const x Real)(assert (>= x 1))(check-sat)(assert (<= x 0))\
       (get-model)"
  in
  check (Alcotest.list string_t) "asserting invalidates the model"
    [ "sat"; "(error \"model is not available\")" ]
    out

let test_smt2_print_success () =
  let out =
    run_script
      "(set-option :print-success true)(set-logic QF_LRA)\
       (set-option :print-success false)(set-logic QF_LRA)"
  in
  check (Alcotest.list string_t) "print-success toggles"
    [ "success"; "success" ] out

let test_smt2_int_sort_branch_and_bound () =
  let out =
    run_script
      "(declare-const k Int)(assert (> k (/ 7 2)))(assert (< k 5))\
       (check-sat)(get-model)"
  in
  check (Alcotest.list string_t) "Int constants solved integrally"
    [ "sat"; "(model (define-fun k () Int 4))" ]
    out

let test_smt2_split_complete () =
  let forms, rest = Smt2.split_complete "(a b) (c (d e)) (unfinished (f" in
  check (Alcotest.list string_t) "complete forms" [ "(a b)"; "(c (d e))" ] forms;
  check string_t "remainder" "(unfinished (f" rest;
  let forms, rest =
    Smt2.split_complete "; a comment line\n(echo \"smi;)ley\")\n"
  in
  check (Alcotest.list string_t) "comments and strings respected"
    [ "(echo \"smi;)ley\")" ]
    forms;
  check string_t "nothing left" "" rest

let test_smt2_reset_and_reset_assertions () =
  let session = Smt2.create () in
  let run s = fst (Smt2.run_string session ~check:(Smt2.engine_check ()) s) in
  let out =
    run
      "(declare-const x Real)(push 1)(assert (<= x 0))(reset-assertions)\
       (assert (>= x 3))(check-sat)(get-model)"
  in
  check (Alcotest.list string_t) "reset-assertions keeps declarations"
    [ "sat"; "(model (define-fun x () Real 3))" ]
    out;
  let out = run "(reset)(assert (>= x 3))" in
  check (Alcotest.list string_t) "reset forgets declarations"
    [ "(error \"unknown constant x\")" ]
    out

(* ------------------------------------------------------------------ *)
(* Executor units.                                                     *)
(* ------------------------------------------------------------------ *)

let test_executor_runs_everything () =
  let exec = Pool.Executor.create ~workers:3 () in
  let hits = Atomic.make 0 in
  (* a fast submitter can outrun the bounded queue: back off and retry,
     as the server's flow control does *)
  let rec submit job =
    match Pool.Executor.submit exec job with
    | Pool.Executor.Submitted -> ()
    | Pool.Executor.Rejected _ ->
      Thread.yield ();
      submit job
  in
  for _ = 1 to 100 do
    submit (fun () -> Atomic.incr hits)
  done;
  Pool.Executor.shutdown exec;
  check int_t "all jobs ran" 100 (Atomic.get hits);
  check int_t "completed counter" 100 (Pool.Executor.completed exec)

let test_executor_bounded_queue_rejects () =
  let exec = Pool.Executor.create ~workers:1 ~queue_capacity:2 () in
  let gate = Mutex.create () in
  let cv = Condition.create () in
  let release = ref false in
  let blocker () =
    Mutex.protect gate (fun () ->
        while not !release do
          Condition.wait cv gate
        done)
  in
  (match Pool.Executor.submit exec blocker with
  | Pool.Executor.Submitted -> ()
  | Pool.Executor.Rejected r -> Alcotest.failf "blocker rejected: %s" r);
  (* wait until the single worker holds the blocker *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Pool.Executor.in_flight exec < 1 && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  check int_t "blocker running" 1 (Pool.Executor.in_flight exec);
  let ok1 = Pool.Executor.submit exec (fun () -> ()) in
  let ok2 = Pool.Executor.submit exec (fun () -> ()) in
  check bool_t "queue admits to capacity" true
    (ok1 = Pool.Executor.Submitted && ok2 = Pool.Executor.Submitted);
  (match Pool.Executor.submit exec (fun () -> ()) with
  | Pool.Executor.Rejected reason ->
    check bool_t "reason names the queue" true
      (String.length reason > 0
      && String.sub reason 0 (min 10 (String.length reason)) = "queue full")
  | Pool.Executor.Submitted -> Alcotest.fail "over-capacity submit admitted");
  Mutex.protect gate (fun () ->
      release := true;
      Condition.broadcast cv);
  Pool.Executor.shutdown exec;
  check int_t "accepted jobs all drained" 3 (Pool.Executor.completed exec)

let test_executor_shutdown_refuses_new_work () =
  let exec = Pool.Executor.create ~workers:2 () in
  Pool.Executor.shutdown exec;
  (match Pool.Executor.submit exec (fun () -> ()) with
  | Pool.Executor.Rejected _ -> ()
  | Pool.Executor.Submitted -> Alcotest.fail "submit after shutdown");
  (* idempotent *)
  Pool.Executor.shutdown exec

let test_executor_contains_job_exceptions () =
  let exec = Pool.Executor.create ~workers:1 () in
  let after = Atomic.make false in
  ignore (Pool.Executor.submit exec (fun () -> failwith "boom"));
  ignore (Pool.Executor.submit exec (fun () -> Atomic.set after true));
  Pool.Executor.shutdown exec;
  check bool_t "worker survived the raise" true (Atomic.get after)

(* ------------------------------------------------------------------ *)
(* JSON layer.                                                         *)
(* ------------------------------------------------------------------ *)

let test_sjson_roundtrip () =
  let cases =
    [
      {|{"a":1,"b":[true,null,"x"],"c":{"d":-2.5}}|};
      {|"esc \" \\ \n \t"|};
      {|[1,2,3]|};
      {|-17|};
    ]
  in
  List.iter
    (fun text ->
      match Sjson.parse text with
      | Error e -> Alcotest.failf "parse %s: %s" text e
      | Ok v -> (
        let printed = Sjson.to_string v in
        match Sjson.parse printed with
        | Error e -> Alcotest.failf "reparse %s: %s" printed e
        | Ok v2 ->
          check bool_t (Printf.sprintf "fixpoint %s" text) true (v = v2)))
    cases

let test_sjson_rejects_garbage () =
  List.iter
    (fun text ->
      match Sjson.parse text with
      | Ok _ -> Alcotest.failf "accepted %s" text
      | Error _ -> ())
    [ "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\" 1}"; "1 2" ]

let test_protocol_parse () =
  match
    Protocol.parse_request
      {|{"id":7,"op":"solve","format":"smt1","problem":"x","timeout_ms":250}|}
  with
  | Ok (Sjson.Num 7., Ok (Protocol.Solve { format; timeout_ms; _ })) ->
    check bool_t "smt1 format" true (format = Protocol.F_smt1);
    check (Alcotest.option int_t) "timeout" (Some 250) timeout_ms
  | Ok _ | Error _ -> Alcotest.fail "solve request did not parse"

let suite =
  [
    Alcotest.test_case "differential: 200 scripts, byte-identical" `Slow
      test_differential_replay;
    Alcotest.test_case "interleaved clients are isolated" `Slow
      test_interleaved_clients_isolated;
    Alcotest.test_case "max-clients admission" `Quick test_max_clients_rejected;
    Alcotest.test_case "timeout degrades to unknown" `Quick
      test_timeout_degrades_to_unknown;
    Alcotest.test_case "stats and health track queries" `Quick
      test_stats_and_health_track_queries;
    Alcotest.test_case "metrics op emits valid Prometheus text" `Quick
      test_metrics_op_prometheus;
    Alcotest.test_case "traced request is one connected tree" `Quick
      test_traced_request_single_tree;
    Alcotest.test_case "slow log reports per-request counters" `Quick
      test_slow_log_counters;
    Alcotest.test_case "smt2 framing over a connection" `Quick
      test_smt2_framing_over_connection;
    Alcotest.test_case "smt2: push/pop scoping" `Quick
      test_smt2_push_pop_scoping;
    Alcotest.test_case "smt2: pop below stack" `Quick test_smt2_pop_below_stack;
    Alcotest.test_case "smt2: malformed input recovery" `Quick
      test_smt2_malformed_recovery;
    Alcotest.test_case "smt2: = on Bool is iff" `Quick
      test_smt2_bool_equality_is_iff;
    Alcotest.test_case "smt2: let and ite" `Quick test_smt2_let_and_ite;
    Alcotest.test_case "smt2: duplicate declaration" `Quick
      test_smt2_duplicate_declaration;
    Alcotest.test_case "smt2: get-model freshness" `Quick
      test_smt2_get_model_needs_sat;
    Alcotest.test_case "smt2: print-success" `Quick test_smt2_print_success;
    Alcotest.test_case "smt2: Int branch-and-bound" `Quick
      test_smt2_int_sort_branch_and_bound;
    Alcotest.test_case "smt2: stream splitting" `Quick test_smt2_split_complete;
    Alcotest.test_case "smt2: reset / reset-assertions" `Quick
      test_smt2_reset_and_reset_assertions;
    Alcotest.test_case "executor: runs everything" `Quick
      test_executor_runs_everything;
    Alcotest.test_case "executor: bounded queue rejects" `Quick
      test_executor_bounded_queue_rejects;
    Alcotest.test_case "executor: shutdown refuses work" `Quick
      test_executor_shutdown_refuses_new_work;
    Alcotest.test_case "executor: contains exceptions" `Quick
      test_executor_contains_job_exceptions;
    Alcotest.test_case "sjson roundtrip" `Quick test_sjson_roundtrip;
    Alcotest.test_case "sjson rejects garbage" `Quick test_sjson_rejects_garbage;
    Alcotest.test_case "protocol parse" `Quick test_protocol_parse;
  ]
