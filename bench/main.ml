(* Benchmark harness: regenerates every table of the paper's evaluation
   (Sec. 5) plus the ablation studies DESIGN.md calls out.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe table1     -- nonlinear problems (Table 1)
     dune exec bench/main.exe table2     -- SMT-LIB FISCHER family (Table 2)
     dune exec bench/main.exe table3     -- Sudoku (Table 3)
     dune exec bench/main.exe ablations  -- design-choice ablations
     dune exec bench/main.exe micro      -- Bechamel micro-benchmarks
     dune exec bench/main.exe json       -- presolve on/off comparison,
                                            written to BENCH_presolve.json
     dune exec bench/main.exe parallel   -- --jobs 1/2/4 speedups and the
                                            portfolio, written to
                                            BENCH_parallel.json
     dune exec bench/main.exe incremental -- from-scratch vs warm-started
                                            LP sessions, written to
                                            BENCH_incremental.json
     dune exec bench/main.exe server     -- mixed workload through the solve
                                            server at 1/4/16 clients, written
                                            to BENCH_server.json
     dune exec bench/main.exe chaos      -- session workload over a socket,
                                            fault-free vs the seeded network
                                            fault injector, plus the half-open
                                            reclaim time, written to
                                            BENCH_chaos.json

   Absolute times are not expected to match a 2007 notebook; the shapes
   (who wins, rough factors, where solvers reject or abort) are. *)

module A = Absolver_core
module B = Absolver_baselines
module M = Absolver_model
module F = Absolver_smtlib.Fischer
module S = Absolver_encodings.Sudoku
module P = Absolver_encodings.Puzzles
module Q = Absolver_numeric.Rational
module BP = Absolver_nlp.Branch_prune
module Expr = Absolver_nlp.Expr
module Linexpr = Absolver_lp.Linexpr
module Telemetry = Absolver_telemetry.Telemetry

let time f =
  let t0 = Telemetry.Clock.now () in
  let r = f () in
  (r, Telemetry.Clock.now () -. t0)

let fmt_time s =
  (* the paper's 0mS.SSSs format *)
  let m = int_of_float (s /. 60.0) in
  Printf.sprintf "%dm%.3fs" m (s -. (60.0 *. float_of_int m))

let engine_verdict = function
  | A.Engine.R_sat _ -> "sat"
  | A.Engine.R_unsat -> "unsat"
  | A.Engine.R_unknown _ -> "unknown"

(* ------------------------------------------------------------------ *)
(* Table 1: nonlinear problems.                                        *)

(* esat_n11_m8_nonlinear: 11 clauses, 8 Boolean variables, 9 linear and
   2 nonlinear expressions (the published statistics). *)
let esat_problem () =
  let text =
    {|p cnf 8 11
1 2 0
-1 3 0
2 -3 4 0
-4 5 0
5 6 0
-6 7 0
7 -8 0
1 -5 8 0
-2 -7 0
3 4 -6 0
2 5 7 0
c def real 1 u + v >= 1
c def real 2 u - v <= 3
c def real 3 2 * u + w <= 10
c def real 4 w - v >= -2
c def real 5 u + v + w <= 12
c def real 6 v >= 0
c def real 6 u + 2 * v <= 15
c def real 7 u >= 0
c def real 7 w >= 0
c def real 8 u * v <= 6
c def real 8 w * w >= 0.25
c bound u -20 20
c bound v -20 20
c bound w -20 20
|}
  in
  match A.Dimacs_ext.parse_string text with
  | Ok p -> p
  | Error e -> failwith ("esat: " ^ e)

(* nonlinear_unsat: 1 clause, 1 variable, 2 nonlinear expressions that
   cannot hold together. *)
let nonlinear_unsat_problem () =
  let text =
    {|p cnf 1 1
1 0
c def real 1 x * x + y * y <= 1
c def real 1 x * y >= 2
c bound x -10 10
c bound y -10 10
|}
  in
  match A.Dimacs_ext.parse_string text with
  | Ok p -> p
  | Error e -> failwith ("nonlinear_unsat: " ^ e)

(* div_operator: the paper's example of how cheap adding '/' was — one
   clause, one variable, 4 linear and 1 nonlinear expression. *)
let div_operator_problem () =
  let text =
    {|p cnf 1 1
1 0
c def real 1 a >= 1
c def real 1 a <= 5
c def real 1 b >= 2
c def real 1 b <= 6
c def real 1 a / b >= 0.5
c bound a -100 100
c bound b -100 100
|}
  in
  match A.Dimacs_ext.parse_string text with
  | Ok p -> p
  | Error e -> failwith ("div_operator: " ^ e)

let steering_registry =
  {
    A.Registry.default with
    A.Registry.nonlinear =
      [
        A.Registry.branch_prune_solver
          ~config:
            {
              BP.default_config with
              BP.max_nodes = 600;
              samples_per_node = 2;
              root_samples = 2048;
            }
          ();
      ];
  }

let table1 () =
  print_endline "== Table 1: nonlinear problems =====================================";
  Printf.printf "%-28s %6s %6s %8s %8s  %-10s %s\n" "Benchmark" "#Cl." "#Var."
    "#linear" "#nonlin." "ABSOLVER" "(result)";
  let row name problem ~registry ~expect =
    let stats = A.Ab_problem.stats problem in
    let defined = List.length (A.Ab_problem.defined_vars problem) in
    let (result, _), dt = time (fun () -> A.Engine.solve ~registry problem) in
    Printf.printf "%-28s %6d %6d %8d %8d  %-10s (%s, expected %s)\n" name
      stats.A.Ab_problem.n_clauses defined stats.A.Ab_problem.n_linear
      stats.A.Ab_problem.n_nonlinear (fmt_time dt) (engine_verdict result)
      expect;
    (match result with
    | A.Engine.R_sat sol -> (
      match A.Solution.check problem sol with
      | Ok () -> ()
      | Error e -> Printf.printf "  !! solution check failed: %s\n" e)
    | A.Engine.R_unsat | A.Engine.R_unknown _ -> ());
    flush stdout
  in
  row "Car steering" (M.Steering.problem ()) ~registry:steering_registry
    ~expect:"sat";
  row "esat_n11_m8_nonlinear" (esat_problem ()) ~registry:A.Registry.default
    ~expect:"sat";
  row "nonlinear_unsat" (nonlinear_unsat_problem ()) ~registry:A.Registry.default
    ~expect:"unsat";
  row "div_operator" (div_operator_problem ()) ~registry:A.Registry.default
    ~expect:"sat";
  (* The paper's remark: both comparison solvers reject these inputs. *)
  print_endline "-- comparative solvers on the same problems:";
  List.iter
    (fun (name, problem) ->
      Printf.printf "%-28s CVC-Lite-like: %-22s MathSAT-like: %s\n" name
        (Format.asprintf "%a" B.Common.pp_result (B.Cvclite_like.solve problem))
        (Format.asprintf "%a" B.Common.pp_result (B.Mathsat_like.solve problem)))
    [
      ("Car steering", M.Steering.problem ());
      ("esat_n11_m8_nonlinear", esat_problem ());
      ("nonlinear_unsat", nonlinear_unsat_problem ());
      ("div_operator", div_operator_problem ());
    ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 2: SMT-LIB (FISCHER family).                                  *)

let table2 () =
  print_endline "== Table 2: SMT-LIB benchmarks (FISCHER family) ====================";
  Printf.printf "%-24s %-12s %-12s %-12s\n" "Benchmark" "ABSOLVER" "CVC-Lite-like"
    "MathSAT-like";
  let rounds = 6 in
  let property = F.Cs_within (Q.of_int 2) in
  for n = 1 to 11 do
    match F.problem ~rounds ~property ~n () with
    | Error e -> Printf.printf "FISCHER%d: generation error %s\n" n e
    | Ok problem ->
      let (ra, _), ta = time (fun () -> A.Engine.solve problem) in
      let rc, tc = time (fun () -> B.Cvclite_like.solve ~deadline_seconds:120.0 problem) in
      let rm, tm = time (fun () -> B.Mathsat_like.solve ~deadline_seconds:120.0 problem) in
      let agree =
        let s r = B.Common.result_name r in
        engine_verdict ra = s rc && s rc = s rm
      in
      Printf.printf "%-24s %-12s %-12s %-12s %s\n"
        (Printf.sprintf "FISCHER%d-1-fair.smt" n)
        (fmt_time ta) (fmt_time tc) (fmt_time tm)
        (if agree then "(all " ^ engine_verdict ra ^ ")"
         else
           Printf.sprintf "(disagree: %s/%s/%s)" (engine_verdict ra)
             (B.Common.result_name rc) (B.Common.result_name rm));
      flush stdout
  done;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 3: Sudoku.                                                    *)

let table3 ?(baseline_deadline = 30.0) () =
  print_endline "== Table 3: Sudoku puzzles =========================================";
  Printf.printf "%-20s %-12s %-22s %-12s\n" "Benchmark" "ABSOLVER" "CVC-Lite-like"
    "MathSAT-like";
  List.iter
    (fun (name, puzzle) ->
      let problem = S.absolver_problem puzzle in
      let (ra, _), ta = time (fun () -> A.Engine.solve problem) in
      (match ra with
      | A.Engine.R_sat sol ->
        let grid = S.decode problem sol in
        if not (S.is_complete_and_valid grid && S.respects_clues ~clues:puzzle grid)
        then Printf.printf "  !! %s: invalid grid returned\n" name
      | A.Engine.R_unsat | A.Engine.R_unknown _ ->
        Printf.printf "  !! %s: ABSOLVER failed to solve\n" name);
      let bp = S.baseline_problem puzzle in
      let rc, tc =
        time (fun () -> B.Cvclite_like.solve ~deadline_seconds:baseline_deadline bp)
      in
      let rm, tm =
        time (fun () -> B.Mathsat_like.solve ~deadline_seconds:baseline_deadline bp)
      in
      let show r t =
        match r with
        | B.Common.B_out_of_memory -> Printf.sprintf "-* (oom, %s)" (fmt_time t)
        | B.Common.B_unknown _ -> Printf.sprintf ">%s" (fmt_time t)
        | B.Common.B_sat _ | B.Common.B_unsat | B.Common.B_rejected _ ->
          fmt_time t
      in
      Printf.printf "%-20s %-12s %-22s %-12s\n" name (fmt_time ta) (show rc tc)
        (show rm tm);
      flush stdout)
    P.all;
  Printf.printf
    "(-* marks simulated out-of-memory aborts; >T marks the %.0fs deadline.)\n\n"
    baseline_deadline

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)

let ablations () =
  print_endline "== Ablations =======================================================";
  (* 1. LSAT-style incremental enumeration vs zChaff-style external
        restarts (paper Sec. 4's remark on the cost of restarting). *)
  print_endline "-- all-models enumeration: incremental (LSAT) vs restarting (zChaff)";
  let puzzle = P.generate ~name:"ablation" ~clues:24 in
  let problem () = S.absolver_problem puzzle in
  let run registry =
    time (fun () ->
        match A.Engine.all_models ~registry ~limit:25 (problem ()) with
        | Ok (models, _) -> List.length models
        | Error e -> failwith e)
  in
  let n1, t_inc = run A.Registry.default in
  let n2, t_restart = run A.Registry.with_chaff in
  Printf.printf "   incremental: %d models in %s\n" n1 (fmt_time t_inc);
  flush stdout;
  Printf.printf "   restarting : %d models in %s (%.1fx slower)\n" n2
    (fmt_time t_restart)
    (t_restart /. Float.max 1e-9 t_inc);
  flush stdout;
  (* 2. Conflict-set minimization on/off. *)
  print_endline "-- smallest-conflicting-subset refinement (deletion filtering)";
  let fischer =
    match F.problem ~rounds:5 ~property:(F.Cs_within (Q.of_int 2)) ~n:6 () with
    | Ok p -> p
    | Error e -> failwith e
  in
  let run_opts options = time (fun () -> A.Engine.solve ~options fischer) in
  let (_, st_plain), t_plain = run_opts A.Engine.default_options in
  let (_, st_min), t_min =
    run_opts { A.Engine.default_options with A.Engine.minimize_conflicts = true }
  in
  Printf.printf "   simplex cores only : %s, %d Boolean models examined\n"
    (fmt_time t_plain) st_plain.A.Engine.bool_models;
  Printf.printf "   + deletion filter  : %s, %d Boolean models examined\n"
    (fmt_time t_min) st_min.A.Engine.bool_models;
  flush stdout;
  (* 3. Linear relaxation of nonlinear constraints on/off. *)
  print_endline "-- linear relaxation of nonlinear subterms in the LP filter";
  let steer () = M.Steering.problem () in
  let run_relax flag =
    time (fun () ->
        A.Engine.solve ~registry:steering_registry
          ~options:
            {
              A.Engine.default_options with
              A.Engine.use_linear_relaxation = flag;
              max_bool_models = 40;
              max_unknown_models = 40;
            }
          (steer ()))
  in
  let (r_on, st_on), t_on = run_relax true in
  let (r_off, st_off), t_off = run_relax false in
  Printf.printf "   relaxation on : %-8s %s (%d models, %d LP conflicts)\n"
    (engine_verdict r_on) (fmt_time t_on) st_on.A.Engine.bool_models
    st_on.A.Engine.linear_conflicts;
  Printf.printf "   relaxation off: %-8s %s (%d models, %d LP conflicts)\n"
    (engine_verdict r_off) (fmt_time t_off) st_off.A.Engine.bool_models
    st_off.A.Engine.linear_conflicts;
  flush stdout;
  (* 4. HC4 contraction on/off inside branch-and-prune. *)
  print_endline "-- HC4 contraction in the nonlinear solver";
  let rels =
    [
      {
        Expr.expr =
          Expr.sub
            (Expr.add (Expr.pow (Expr.var 0) 2) (Expr.pow (Expr.var 1) 2))
            (Expr.const Q.one);
        op = Linexpr.Le;
        tag = 0;
      };
      {
        Expr.expr =
          Expr.sub
            (Expr.const (Q.of_decimal_string "1.5"))
            (Expr.add (Expr.var 0) (Expr.var 1));
        op = Linexpr.Le;
        tag = 1;
      };
    ]
  in
  let box () =
    Absolver_nlp.Box.of_bounds
      [
        (0, Absolver_numeric.Interval.make (-4.0) 4.0);
        (1, Absolver_numeric.Interval.make (-4.0) 4.0);
      ]
      2
  in
  let run_hc4 flag =
    time (fun () ->
        BP.solve
          ~config:{ BP.default_config with BP.use_hc4 = flag; samples_per_node = 0; root_samples = 0 }
          ~nvars:2 ~box:(box ()) rels)
  in
  let (_, stats_on), t_hc4_on = run_hc4 true in
  let (_, stats_off), t_hc4_off = run_hc4 false in
  Printf.printf "   HC4 on : %s, %d nodes explored\n" (fmt_time t_hc4_on)
    stats_on.BP.nodes;
  Printf.printf "   HC4 off: %s, %d nodes explored (%.0fx more)\n"
    (fmt_time t_hc4_off) stats_off.BP.nodes
    (float_of_int stats_off.BP.nodes /. Float.max 1.0 (float_of_int stats_on.BP.nodes));
  flush stdout;
  (* 5. Sudoku encodings: the paper's claim that the mixed encoding beats
        the classic pure-SAT translation [6,12]. *)
  print_endline "-- Sudoku: mixed Boolean+integer encoding vs pure-SAT [6,12]";
  let sudoku_encoding_times name mk =
    let total = ref 0.0 in
    List.iter
      (fun (pname, puzzle) ->
        let problem = mk puzzle in
        let (r, _), t = time (fun () -> A.Engine.solve problem) in
        (match r with
        | A.Engine.R_sat _ -> ()
        | A.Engine.R_unsat | A.Engine.R_unknown _ ->
          Printf.printf "   !! %s unsolved on %s\n" name pname);
        total := !total +. t)
      P.all;
    Printf.printf "   %-22s %s over the 10 Table-3 instances\n" name
      (fmt_time !total);
    flush stdout
  in
  sudoku_encoding_times "mixed (order atoms)" S.absolver_problem;
  sudoku_encoding_times "pure SAT" S.sat_problem;
  (* 6. Equality splitting in the SMT-LIB conversion. *)
  print_endline "-- equality splitting (eq -> le & ge) in the SMT-LIB conversion";
  let bench = F.benchmark ~rounds:3 ~property:(F.Cs_within (Q.of_int 4)) ~n:3 () in
  let convert split =
    match Absolver_smtlib.To_ab.convert_split_eq ~split_eq:split bench with
    | Ok p -> p
    | Error e -> failwith e
  in
  let (r_split, st_split), t_split = time (fun () -> A.Engine.solve (convert true)) in
  let (r_eq, st_eq), t_eq = time (fun () -> A.Engine.solve (convert false)) in
  Printf.printf "   split eq : %-8s %s (%d eq-branches)\n" (engine_verdict r_split)
    (fmt_time t_split) st_split.A.Engine.eq_branches;
  Printf.printf "   plain eq : %-8s %s (%d eq-branches)\n" (engine_verdict r_eq)
    (fmt_time t_eq) st_eq.A.Engine.eq_branches;
  flush stdout;
  (* 7. The presolve layer (SAT inprocessing + LP presolve + ICP) on/off. *)
  print_endline "-- presolve layer (SAT inprocessing + LP presolve + interval prop.)";
  let run_pre flag =
    time (fun () ->
        A.Engine.solve
          ~options:{ A.Engine.default_options with A.Engine.use_presolve = flag }
          fischer)
  in
  let (_, st_pre_on), t_pre_on = run_pre true in
  let (_, st_pre_off), t_pre_off = run_pre false in
  Printf.printf
    "   presolve on : %s (%d vars fixed, %d bounds tightened, %d Boolean models)\n"
    (fmt_time t_pre_on) st_pre_on.A.Engine.presolve_fixed_literals
    st_pre_on.A.Engine.presolve_tightened_bounds st_pre_on.A.Engine.bool_models;
  Printf.printf "   presolve off: %s (%d Boolean models)\n" (fmt_time t_pre_off)
    st_pre_off.A.Engine.bool_models;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Machine-readable presolve comparison: every Table-1/2/3 instance     *)
(* solved with the presolve layer on and off, dumped as JSON — each run *)
(* under an enabled telemetry aggregator, so every entry also carries a *)
(* per-phase timing breakdown (presolve, sat_search, linear_check, …).  *)

let phases_json tel =
  Telemetry.Json.obj
    (List.map
       (fun (name, a) ->
         ( name,
           Telemetry.Json.obj
             [
               ("calls", string_of_int a.Telemetry.agg_calls);
               ("total_s", Telemetry.Json.of_float a.Telemetry.agg_total_s);
               ("max_s", Telemetry.Json.of_float a.Telemetry.agg_max_s);
             ] ))
       (Telemetry.span_aggregates tel))

let json_mode () =
  let entries = ref [] in
  let tot_on = ref 0.0 and tot_off = ref 0.0 in
  let case ~table ~name ?(registry = A.Registry.default) mk =
    let run on =
      let tel = Telemetry.create () in
      let options =
        {
          A.Engine.default_options with
          A.Engine.use_presolve = on;
          telemetry = tel;
        }
      in
      let (r, st), t = time (fun () -> A.Engine.solve ~registry ~options (mk ())) in
      Telemetry.close tel;
      (engine_verdict r, t, st, tel)
    in
    let v_on, t_on, st_on, tel_on = run true in
    let v_off, t_off, st_off, tel_off = run false in
    if v_on <> v_off then
      Printf.printf "!! %s: verdict differs with presolve (%s vs %s)\n" name v_on
        v_off;
    tot_on := !tot_on +. t_on;
    tot_off := !tot_off +. t_off;
    let side v t st tel =
      Telemetry.Json.obj
        [
          ("verdict", Printf.sprintf "%S" v);
          ("seconds", Telemetry.Json.of_float t);
          ("stats", A.Engine.run_stats_json st);
          ("phases", phases_json tel);
        ]
    in
    entries :=
      Printf.sprintf
        "    {\"table\":%S,\"name\":%S,\n\
        \     \"presolve_on\":%s,\n\
        \     \"presolve_off\":%s}"
        table name
        (side v_on t_on st_on tel_on)
        (side v_off t_off st_off tel_off)
      :: !entries;
    Printf.printf "%-26s on %-10s off %-10s (%s)\n" name (fmt_time t_on)
      (fmt_time t_off) v_on;
    flush stdout
  in
  case ~table:"table1" ~name:"car_steering" ~registry:steering_registry
    (fun () -> M.Steering.problem ());
  case ~table:"table1" ~name:"esat_n11_m8_nonlinear" esat_problem;
  case ~table:"table1" ~name:"nonlinear_unsat" nonlinear_unsat_problem;
  case ~table:"table1" ~name:"div_operator" div_operator_problem;
  for n = 1 to 6 do
    case ~table:"table2" ~name:(Printf.sprintf "fischer%d" n) (fun () ->
        match F.problem ~rounds:6 ~property:(F.Cs_within (Q.of_int 2)) ~n () with
        | Ok p -> p
        | Error e -> failwith e)
  done;
  List.iter
    (fun (pname, puzzle) ->
      case ~table:"table3" ~name:("sudoku_" ^ pname) (fun () ->
          S.absolver_problem puzzle))
    P.all;
  let body = String.concat ",\n" (List.rev !entries) in
  let json =
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"presolve on/off\",\n\
      \  \"total_seconds_presolve_on\": %.6f,\n\
      \  \"total_seconds_presolve_off\": %.6f,\n\
      \  \"cases\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      !tot_on !tot_off body
  in
  let oc = open_out "BENCH_presolve.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "totals: presolve on %s, presolve off %s\nwrote BENCH_presolve.json\n"
    (fmt_time !tot_on) (fmt_time !tot_off)

(* ------------------------------------------------------------------ *)
(* Parallel mode: the Table-1 nonlinear instances at --jobs 1/2/4 with *)
(* per-case speedups, plus a portfolio run per case, dumped as JSON.   *)

let parallel_mode () =
  let job_counts = [ 1; 2; 4 ] in
  let cores = Absolver_parallel.Pool.available_cores () in
  Printf.printf "cores available: %d\n" cores;
  let entries = ref [] in
  let case ~name ?(config = BP.default_config) mk =
    let run jobs =
      let registry =
        {
          A.Registry.default with
          A.Registry.nonlinear = [ A.Registry.branch_prune_solver ~config ~jobs () ];
        }
      in
      let (r, _), t = time (fun () -> A.Engine.solve ~registry (mk ())) in
      (engine_verdict r, t)
    in
    let runs = List.map (fun j -> (j, run j)) job_counts in
    let t1 =
      match runs with (1, (_, t)) :: _ -> t | _ -> assert false
    in
    let verdicts = List.map (fun (_, (v, _)) -> v) runs in
    let agree = List.for_all (fun v -> v = List.hd verdicts) verdicts in
    if not agree then
      Printf.printf "!! %s: verdicts differ across job counts: %s\n" name
        (String.concat "/" verdicts);
    (* Portfolio: engine (with this case's oracle config) vs baselines. *)
    let registry =
      {
        A.Registry.default with
        A.Registry.nonlinear = [ A.Registry.branch_prune_solver ~config () ];
      }
    in
    let (pr, pwinner), pt =
      time (fun () -> B.Portfolio.solve ~registry (mk ()))
    in
    let runs_json =
      List.map
        (fun (j, (v, t)) ->
          Telemetry.Json.obj
            [
              ("jobs", string_of_int j);
              ("verdict", Printf.sprintf "%S" v);
              ("seconds", Telemetry.Json.of_float t);
              ( "speedup_vs_jobs1",
                Telemetry.Json.of_float (t1 /. Float.max 1e-9 t) );
            ])
        runs
    in
    entries :=
      Telemetry.Json.obj
        [
          ("name", Printf.sprintf "%S" name);
          ("verdicts_agree", string_of_bool agree);
          ("runs", "[" ^ String.concat "," runs_json ^ "]");
          ( "portfolio",
            Telemetry.Json.obj
              [
                ("verdict", Printf.sprintf "%S" (engine_verdict pr));
                ( "winner",
                  match pwinner with
                  | Some w -> Printf.sprintf "%S" w
                  | None -> "null" );
                ("seconds", Telemetry.Json.of_float pt);
              ] );
        ]
      :: !entries;
    Printf.printf "%-26s %s  portfolio %s (winner %s)\n" name
      (String.concat "  "
         (List.map
            (fun (j, (v, t)) ->
              Printf.sprintf "j%d %s/%s (%.2fx)" j v (fmt_time t)
                (t1 /. Float.max 1e-9 t))
            runs))
      (fmt_time pt)
      (Option.value ~default:"-" pwinner);
    flush stdout
  in
  case ~name:"car_steering"
    ~config:
      {
        BP.default_config with
        BP.max_nodes = 600;
        samples_per_node = 2;
        root_samples = 2048;
      }
    (fun () -> M.Steering.problem ());
  case ~name:"esat_n11_m8_nonlinear" esat_problem;
  case ~name:"nonlinear_unsat" nonlinear_unsat_problem;
  case ~name:"div_operator" div_operator_problem;
  let json =
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"parallel branch-and-prune\",\n\
      \  \"cores_available\": %d,\n\
      \  \"job_counts\": [%s],\n\
      \  \"cases\": [\n%s\n  ]\n}\n"
      cores
      (String.concat "," (List.map string_of_int job_counts))
      (String.concat ",\n"
         (List.map (fun e -> "    " ^ e) (List.rev !entries)))
  in
  let oc = open_out "BENCH_parallel.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_parallel.json"

(* ------------------------------------------------------------------ *)
(* Incremental mode: from-scratch vs warm-started session on           *)
(* multi-model paper cases. Reports wall clock and exact pivot counts  *)
(* per case, and asserts that both configurations agree on every       *)
(* verdict.                                                            *)

let incremental_mode () =
  let entries = ref [] in
  let tot = Hashtbl.create 4 in
  let add_tot mode t pivots =
    let t0, p0 =
      Option.value ~default:(0.0, 0) (Hashtbl.find_opt tot mode)
    in
    Hashtbl.replace tot mode (t0 +. t, p0 + pivots)
  in
  let case ~name ?(registry = A.Registry.default) ?limit mk =
    let run use_incremental =
      let options = { A.Engine.default_options with A.Engine.use_incremental } in
      let p0 = Absolver_lp.Simplex.total_pivots () in
      let r, t =
        time (fun () ->
            match limit with
            | Some limit -> (
              match A.Engine.all_models ~registry ~options ~limit (mk ()) with
              | Ok (models, st) ->
                (Printf.sprintf "%d models" (List.length models), st)
              | Error e -> failwith (name ^ ": " ^ e))
            | None ->
              let res, st = A.Engine.solve ~registry ~options (mk ()) in
              (engine_verdict res, st))
      in
      let pivots = Absolver_lp.Simplex.total_pivots () - p0 in
      (fst r, snd r, t, pivots)
    in
    let v_scratch, _, t_scratch, p_scratch = run false in
    let v_warm, st_warm, t_warm, p_warm = run true in
    if v_scratch <> v_warm then
      Printf.printf "!! %s: verdicts differ (%s / %s)\n" name v_scratch v_warm;
    add_tot "from_scratch" t_scratch p_scratch;
    add_tot "incremental" t_warm p_warm;
    let side t pivots =
      Telemetry.Json.obj
        [
          ("seconds", Telemetry.Json.of_float t);
          ("pivots", string_of_int pivots);
        ]
    in
    entries :=
      Telemetry.Json.obj
        [
          ("name", Printf.sprintf "%S" name);
          ("verdict", Printf.sprintf "%S" v_scratch);
          ("verdicts_agree", string_of_bool (v_scratch = v_warm));
          ("from_scratch", side t_scratch p_scratch);
          ("incremental", side t_warm p_warm);
          ("constraints_reused", string_of_int st_warm.A.Engine.lp_reused);
          ("constraints_asserted", string_of_int st_warm.A.Engine.lp_asserted);
          ( "pivot_reduction",
            Telemetry.Json.of_float
              (if p_warm = 0 then float_of_int p_scratch
               else float_of_int p_scratch /. float_of_int p_warm) );
        ]
      :: !entries;
    Printf.printf "%-22s scratch %s/%-6d warm %s/%-6d (%s)\n" name
      (fmt_time t_scratch) p_scratch (fmt_time t_warm) p_warm v_scratch;
    flush stdout
  in
  (* Cs_within 4 is satisfiable: the enumeration visits many Boolean
     models, which is where the warm start earns its keep.
     Cs_within 2 is the unsat variant — every model's subsystem is
     refuted by the LP, a different (conflict-heavy) access pattern. *)
  for n = 1 to 3 do
    case ~name:(Printf.sprintf "fischer%d_models_sat" n) ~limit:25 (fun () ->
        match F.problem ~rounds:4 ~property:(F.Cs_within (Q.of_int 4)) ~n () with
        | Ok p -> p
        | Error e -> failwith e)
  done;
  for n = 1 to 3 do
    case ~name:(Printf.sprintf "fischer%d_models_unsat" n) ~limit:25 (fun () ->
        match F.problem ~rounds:6 ~property:(F.Cs_within (Q.of_int 2)) ~n () with
        | Ok p -> p
        | Error e -> failwith e)
  done;
  case ~name:"car_steering" ~registry:steering_registry (fun () ->
      M.Steering.problem ());
  case ~name:"esat_n11_m8_nonlinear" esat_problem;
  case ~name:"nonlinear_unsat" nonlinear_unsat_problem;
  case ~name:"div_operator" div_operator_problem;
  let totals =
    List.map
      (fun m ->
        let t, p = Option.value ~default:(0.0, 0) (Hashtbl.find_opt tot m) in
        Printf.sprintf "  \"total_%s\": {\"seconds\": %s, \"pivots\": %d}" m
          (Telemetry.Json.of_float t) p)
      [ "from_scratch"; "incremental" ]
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"incremental DPLL(T) hot path\",\n\
       %s,\n\
      \  \"cases\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" totals)
      (String.concat ",\n"
         (List.map (fun e -> "    " ^ e) (List.rev !entries)))
  in
  let oc = open_out "BENCH_incremental.json" in
  output_string oc json;
  close_out oc;
  let t_s, p_s =
    Option.value ~default:(0.0, 0) (Hashtbl.find_opt tot "from_scratch")
  in
  let t_w, p_w =
    Option.value ~default:(0.0, 0) (Hashtbl.find_opt tot "incremental")
  in
  Printf.printf
    "totals: from-scratch %s (%d pivots), incremental %s (%d pivots, %.1fx fewer)\n\
     wrote BENCH_incremental.json\n"
    (fmt_time t_s) p_s (fmt_time t_w) p_w
    (if p_w = 0 then float_of_int p_s
     else float_of_int p_s /. float_of_int p_w)

(* ------------------------------------------------------------------ *)
(* Server mode: the same mixed workload (FISCHER sat/unsat, Sudoku,    *)
(* car steering) pushed through the solve server at 1/4/16 concurrent  *)
(* clients.  Queries are partitioned deterministically (client i gets  *)
(* queries i, i+C, i+2C, ...), so every level answers the identical    *)
(* set and the verdict vector must be identical across levels — warm   *)
(* per-client sessions may change models, never verdicts.  Written to  *)
(* BENCH_server.json.                                                  *)

let server_mode () =
  let module Server = Absolver_server.Server in
  let module Sjson = Absolver_server.Sjson in
  let fischer ~rounds ~within n =
    match F.problem ~rounds ~property:(F.Cs_within (Q.of_int within)) ~n () with
    | Ok p -> A.Dimacs_ext.to_string p
    | Error e -> failwith e
  in
  let base =
    List.concat
      [
        List.init 3 (fun i ->
            (Printf.sprintf "fischer%d_sat" (i + 1), fischer ~rounds:4 ~within:4 (i + 1)));
        List.init 3 (fun i ->
            (Printf.sprintf "fischer%d_unsat" (i + 1), fischer ~rounds:5 ~within:2 (i + 1)));
        (match P.all with
        | (n1, p1) :: (n2, p2) :: _ ->
          [
            ("sudoku_" ^ n1, A.Dimacs_ext.to_string (S.absolver_problem p1));
            ("sudoku_" ^ n2, A.Dimacs_ext.to_string (S.absolver_problem p2));
          ]
        | _ -> []);
      ]
  in
  let queries =
    ("car_steering", A.Dimacs_ext.to_string (M.Steering.problem ()))
    :: List.concat [ base; base; base; base; base; base; base; base ]
  in
  let n = List.length queries in
  let texts = Array.of_list (List.map snd queries) in
  Printf.printf "workload: %d queries (%s)\n%!" n
    (String.concat ", " (List.sort_uniq compare (List.map fst queries)));
  (* steering needs the Table-1 branch-and-prune budget; each client
     still gets its own warm persistent simplex session *)
  let registry () =
    let solver, dispose = A.Registry.persistent_simplex () in
    ( {
        steering_registry with
        A.Registry.linear = [ solver ];
      },
      dispose )
  in
  let percentile sorted q =
    let m = Array.length sorted in
    if m = 0 then 0.0
    else sorted.(min (m - 1) (int_of_float (ceil (q *. float_of_int m)) - 1))
  in
  let run_level clients =
    let config =
      { Server.default_config with Server.default_timeout_ms = None; registry }
    in
    let srv = Server.create ~config () in
    let latencies = Array.make n 0.0 in
    let verdicts = Array.make n "" in
    let t0 = Telemetry.Clock.now () in
    let client ci =
      let req_r, req_w = Unix.pipe () in
      let resp_r, resp_w = Unix.pipe () in
      let th =
        Thread.create
          (fun () ->
            let ic = Unix.in_channel_of_descr req_r in
            let oc = Unix.out_channel_of_descr resp_w in
            Server.serve_channel srv ic oc;
            (try close_in ic with _ -> ());
            try close_out oc with _ -> ())
          ()
      in
      let wr = Unix.out_channel_of_descr req_w in
      let rd = Unix.in_channel_of_descr resp_r in
      let q = ref ci in
      while !q < n do
        let line =
          Sjson.to_string
            (Sjson.Obj
               [
                 ("id", Sjson.Num (float_of_int !q));
                 ("op", Sjson.Str "solve");
                 ("format", Sjson.Str "dimacs");
                 ("problem", Sjson.Str texts.(!q));
               ])
        in
        let t = Telemetry.Clock.now () in
        output_string wr (line ^ "\n");
        flush wr;
        let resp = input_line rd in
        latencies.(!q) <- (Telemetry.Clock.now () -. t) *. 1000.0;
        (verdicts.(!q) <-
           (match Sjson.parse resp with
           | Ok o -> (
             match Option.bind (Sjson.member "verdict" o) Sjson.get_string with
             | Some v -> v
             | None -> "error")
           | Error _ -> "error"));
        q := !q + clients
      done;
      (try close_out wr with _ -> ());
      Thread.join th;
      try close_in rd with _ -> ()
    in
    let threads = List.init clients (fun ci -> Thread.create client ci) in
    List.iter Thread.join threads;
    let wall = Telemetry.Clock.now () -. t0 in
    Server.shutdown srv;
    let sorted = Array.copy latencies in
    Array.sort compare sorted;
    let level =
      Telemetry.Json.obj
        [
          ("clients", string_of_int clients);
          ("seconds", Telemetry.Json.of_float wall);
          ( "throughput_qps",
            Telemetry.Json.of_float (float_of_int n /. Float.max 1e-9 wall) );
          ("p50_ms", Telemetry.Json.of_float (percentile sorted 0.50));
          ("p95_ms", Telemetry.Json.of_float (percentile sorted 0.95));
          ("p99_ms", Telemetry.Json.of_float (percentile sorted 0.99));
        ]
    in
    Printf.printf
      "clients %2d: %s  %6.2f q/s  p50 %7.1fms  p95 %7.1fms  p99 %7.1fms\n%!"
      clients (fmt_time wall)
      (float_of_int n /. Float.max 1e-9 wall)
      (percentile sorted 0.50) (percentile sorted 0.95) (percentile sorted 0.99);
    (level, Array.to_list verdicts)
  in
  let levels = [ 1; 4; 16 ] in
  let results = List.map (fun c -> (c, run_level c)) levels in
  let reference = snd (snd (List.hd results)) in
  let identical =
    List.for_all (fun (_, (_, vs)) -> vs = reference) results
  in
  if not identical then
    List.iter
      (fun (c, (_, vs)) ->
        List.iteri
          (fun i (v, r) ->
            if v <> r then
              Printf.printf "!! clients=%d query %d (%s): %s <> %s\n" c i
                (fst (List.nth queries i))
                v r)
          (List.combine vs reference))
      results;
  Printf.printf "verdicts identical across levels: %b\n%!" identical;
  let json =
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"solve server throughput\",\n\
      \  \"queries\": %d,\n\
      \  \"cores_available\": %d,\n\
      \  \"workers\": %d,\n\
      \  \"verdicts_identical_across_levels\": %b,\n\
      \  \"levels\": [\n%s\n  ]\n}\n"
      n
      (Absolver_parallel.Pool.available_cores ())
      Server.default_config.Server.workers identical
      (String.concat ",\n"
         (List.map (fun (_, (l, _)) -> "    " ^ l) results))
  in
  let oc = open_out "BENCH_server.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_server.json"

(* ------------------------------------------------------------------ *)
(* Chaos mode: seeded SMT-LIB 2 session workload through the           *)
(* reconnecting client over a real Unix socket, fault-free vs under    *)
(* the seeded network fault injector — per-command latency percentiles *)
(* must not grow a cliff, transcripts must stay byte-identical — plus  *)
(* the half-open-client reclaim time against the idle timeout.         *)
(* Written to BENCH_chaos.json.                                        *)

let chaos_mode () =
  let module Server = Absolver_server.Server in
  let module Io = Absolver_server.Io in
  let module Sjson = Absolver_server.Sjson in
  let module Client = Absolver_client.Client in
  let module Faults = Absolver_resource.Faults in
  let sessions = 64 in
  let idle_timeout_s = 2.0 in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "absolver-bench-chaos-%d.sock" (Unix.getpid ()))
  in
  let gen_session st =
    let a () = 1 + Random.State.int st 5 in
    let r () = Random.State.int st 13 - 4 in
    let cmds = ref [ "(declare-const y Real)"; "(declare-const x Real)" ] in
    let n = 4 + Random.State.int st 5 in
    for _ = 1 to n do
      match Random.State.int st 4 with
      | 0 | 1 ->
        cmds :=
          Printf.sprintf "(assert (<= (+ (* %d x) (* %d y)) %d))" (a ()) (a ())
            (r ())
          :: !cmds
      | 2 -> cmds := Printf.sprintf "(assert (>= x %d))" (r ()) :: !cmds
      | _ -> cmds := "(check-sat)" :: !cmds
    done;
    List.rev ("(check-sat)" :: !cmds)
  in
  let scripts =
    let st = Random.State.make [| 0xbc4a05 |] in
    Array.init sessions (fun _ -> gen_session st)
  in
  let config =
    {
      Server.default_config with
      Server.default_timeout_ms = None;
      io = { Io.default_limits with Io.idle_timeout_s = Some idle_timeout_s };
    }
  in
  let srv = Server.create ~config () in
  let srv_th = Thread.create (fun () -> ignore (Server.serve_socket srv ~path)) () in
  let rec wait_up tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with _ -> ());
      if tries = 0 then failwith "chaos bench: daemon did not come up";
      Thread.delay 0.02;
      wait_up (tries - 1)
  in
  wait_up 250;
  let cconfig =
    {
      Client.default_config with
      Client.journal_solves = true;
      max_attempts = 16;
      backoff_base_s = 0.002;
      backoff_max_s = 0.05;
    }
  in
  let percentile sorted q =
    let m = Array.length sorted in
    if m = 0 then 0.0
    else sorted.(min (m - 1) (int_of_float (ceil (q *. float_of_int m)) - 1))
  in
  (* one phase: all sessions across 8 threads; per-command latency, the
     full transcripts and the client fault counters *)
  let run_phase name =
    let transcripts = Array.make sessions [] in
    let lat = Array.init sessions (fun _ -> ref []) in
    let retries = Atomic.make 0 and reconnects = Atomic.make 0 in
    let replayed = Atomic.make 0 in
    let next = Atomic.make 0 in
    let t0 = Telemetry.Clock.now () in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < sessions then begin
          (match Client.connect ~config:cconfig ~path () with
          | Error e -> failwith ("chaos bench connect: " ^ e)
          | Ok cl ->
            let out =
              List.concat_map
                (fun cmd ->
                  let t = Telemetry.Clock.now () in
                  match Client.command cl cmd with
                  | Ok rs ->
                    lat.(i) :=
                      ((Telemetry.Clock.now () -. t) *. 1000.0) :: !(lat.(i));
                    rs
                  | Error e -> failwith ("chaos bench command: " ^ e))
                scripts.(i)
            in
            transcripts.(i) <- out;
            Atomic.fetch_and_add retries (Client.retries cl) |> ignore;
            Atomic.fetch_and_add reconnects (Client.reconnects cl) |> ignore;
            Atomic.fetch_and_add replayed (Client.replayed cl) |> ignore;
            Client.close cl);
          go ()
        end
      in
      go ()
    in
    let ths = List.init 8 (fun _ -> Thread.create worker ()) in
    List.iter Thread.join ths;
    let wall = Telemetry.Clock.now () -. t0 in
    let all = Array.of_list (List.concat_map (fun r -> !r) (Array.to_list lat)) in
    Array.sort compare all;
    let cmds = Array.length all in
    Printf.printf
      "%-9s %s  %5d commands  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms  \
       retries %d  reconnects %d  replayed %d\n%!"
      name (fmt_time wall) cmds (percentile all 0.50) (percentile all 0.95)
      (percentile all 0.99) (Atomic.get retries) (Atomic.get reconnects)
      (Atomic.get replayed);
    let json =
      Telemetry.Json.obj
        [
          ("seconds", Telemetry.Json.of_float wall);
          ("commands", string_of_int cmds);
          ("p50_ms", Telemetry.Json.of_float (percentile all 0.50));
          ("p95_ms", Telemetry.Json.of_float (percentile all 0.95));
          ("p99_ms", Telemetry.Json.of_float (percentile all 0.99));
          ("retries", string_of_int (Atomic.get retries));
          ("reconnects", string_of_int (Atomic.get reconnects));
          ("replayed_commands", string_of_int (Atomic.get replayed));
        ]
    in
    (json, Array.to_list transcripts, percentile all 0.99)
  in
  let base_json, base_out, base_p99 = run_phase "baseline" in
  Faults.Net.arm
    ~plan:{ Faults.Net.default_plan with Faults.Net.seed = 42; max_delay_ms = 2.0 }
    ();
  let chaos_json, chaos_out, chaos_p99 =
    match run_phase "chaos" with
    | r -> r
    | exception e ->
      Faults.Net.disarm ();
      raise e
  in
  let injected =
    List.fold_left (fun n (_, k) -> n + k) 0 (Faults.Net.injected ())
  in
  Faults.Net.disarm ();
  let identical = base_out = chaos_out in
  Printf.printf "transcripts identical under chaos: %b (%d faults injected)\n%!"
    identical injected;
  (* half-open reclaim: a client sends one command, reads its reply and
     goes silent without closing; the idle timeout must reclaim it *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let line = "(check-sat)\n" in
  ignore (Unix.write_substring fd line 0 (String.length line));
  let buf = Bytes.create 256 in
  ignore (Unix.read fd buf 0 256);
  let clients_now () =
    match List.assoc_opt "clients" (Server.health_fields srv) with
    | Some (Sjson.Num n) -> int_of_float n
    | _ -> -1
  in
  let t0 = Telemetry.Clock.now () in
  let rec wait_reclaim () =
    if clients_now () = 0 then Telemetry.Clock.now () -. t0
    else if Telemetry.Clock.now () -. t0 > idle_timeout_s +. 5.0 then -1.0
    else begin
      Thread.delay 0.05;
      wait_reclaim ()
    end
  in
  let reclaim_s = wait_reclaim () in
  (try Unix.close fd with _ -> ());
  let within = reclaim_s >= 0.0 && reclaim_s <= idle_timeout_s +. 1.0 in
  Printf.printf "half-open client reclaimed in %s (idle timeout %.1fs): %b\n%!"
    (fmt_time reclaim_s) idle_timeout_s within;
  Server.request_stop srv;
  Thread.join srv_th;
  Server.shutdown srv;
  let json =
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"fault-tolerant serving under network chaos\",\n\
      \  \"sessions\": %d,\n\
      \  \"faults_injected\": %d,\n\
      \  \"transcripts_identical\": %b,\n\
      \  \"p99_ratio_chaos_over_baseline\": %s,\n\
      \  \"baseline\": %s,\n\
      \  \"chaos\": %s,\n\
      \  \"half_open\": {\"idle_timeout_s\": %s, \"reclaimed_in_s\": %s, \
       \"within_timeout\": %b}\n\
       }\n"
      sessions injected identical
      (Telemetry.Json.of_float
         (if base_p99 <= 0.0 then 0.0 else chaos_p99 /. base_p99))
      base_json chaos_json
      (Telemetry.Json.of_float idle_timeout_s)
      (Telemetry.Json.of_float reclaim_s)
      within
  in
  let oc = open_out "BENCH_chaos.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_chaos.json";
  if not identical then exit 1;
  if not within then exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table.                 *)

let micro () =
  (* Capture before the Bechamel opens (Toolkit shadows short names). *)
  let sudoku_problem = S.absolver_problem in
  let generate_puzzle = P.generate in
  let open Bechamel in
  let open Toolkit in
  let t1 =
    Test.make ~name:"table1/div_operator"
      (Staged.stage (fun () -> ignore (A.Engine.solve (div_operator_problem ()))))
  in
  let t2 =
    Test.make ~name:"table2/fischer3"
      (Staged.stage (fun () ->
           match F.problem ~rounds:3 ~property:(F.Cs_within (Q.of_int 2)) ~n:3 () with
           | Ok p -> ignore (A.Engine.solve p)
           | Error e -> failwith e))
  in
  let puzzle = generate_puzzle ~name:"micro" ~clues:40 in
  let t3 =
    Test.make ~name:"table3/sudoku40"
      (Staged.stage (fun () -> ignore (A.Engine.solve (sudoku_problem puzzle))))
  in
  let test = Test.make_grouped ~name:"absolver" [ t1; t2; t3 ] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 2.0) ~kde:(Some 10) () in
  let raw = Benchmark.all cfg instances test in
  let results =
    List.map (fun i -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) i raw) instances
  in
  let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instances results in
  Hashtbl.iter
    (fun measure tbl ->
      Hashtbl.iter
        (fun name ols ->
          Format.printf "%-24s %-18s %a@." name measure Analyze.OLS.pp ols)
        tbl)
    results

(* ------------------------------------------------------------------ *)
(* Flatcore mode: wall time and allocated words per case, new (live)   *)
(* vs the recorded pre-refactor baseline, written to                   *)
(* BENCH_flatcore.json.  The baseline column was measured at the seed  *)
(* commit (before the CSR tableau / small-rational refactor) with this *)
(* same harness; verdicts are asserted identical, and the fischer      *)
(* family doubles as CI's allocation-budget regression check: the run  *)
(* exits non-zero if the live fischer allocation exceeds half the      *)
(* recorded pre-refactor total.                                        *)

let flatcore_measure f =
  let s0 = Gc.quick_stat () in
  let t0 = Telemetry.Clock.now () in
  let r = f () in
  let dt = Telemetry.Clock.now () -. t0 in
  let s1 = Gc.quick_stat () in
  let words =
    s1.Gc.minor_words -. s0.Gc.minor_words
    +. (s1.Gc.major_words -. s0.Gc.major_words)
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)
  in
  (r, dt, words)

(* (name, verdict, seconds, allocated words) measured pre-refactor, at
   the seed of this change (commit 7c0eccf: Q.t IM.t tree-map tableau
   rows, two-Bigint-boxed rationals), single run of this harness on the
   1-core reference container. *)
let flatcore_baseline : (string * string * float * float) list =
  [
    ("fischer1_models_sat", "6 models", 0.006, 961548.0);
    ("fischer2_models_sat", "25 models", 0.055, 13411214.0);
    ("fischer3_models_sat", "25 models", 0.111, 23400686.0);
    ("fischer1_models_unsat", "0 models", 0.003, 669884.0);
    ("fischer2_models_unsat", "0 models", 0.051, 10887560.0);
    ("fischer3_models_unsat", "0 models", 0.150, 27731691.0);
    ("fischer4_solve", "unsat", 0.210, 34816477.0);
    ("fischer6_solve", "unsat", 0.529, 69672887.0);
    ("car_steering_j1", "sat", 4.558, 1367482518.0);
    ("car_steering_j4", "sat", 10.155, 743722008.0);
    ("esat_n11_m8", "sat", 0.001, 380.0);
    ("div_operator", "sat", 0.000, 0.0);
  ]

let flatcore_mode () =
  let entries = ref [] in
  let fischer_old = ref 0.0 and fischer_new = ref 0.0 in
  let mismatches = ref 0 in
  let case ~name run =
    let v, t, w = flatcore_measure run in
    let old =
      List.find_opt (fun (n, _, _, _) -> n = name) flatcore_baseline
    in
    (match old with
    | Some (_, v_old, _, _) when v_old <> v ->
      incr mismatches;
      Printf.printf "!! %s: verdict flipped (%s, baseline %s)\n" name v v_old
    | _ -> ());
    let is_fischer =
      String.length name >= 7 && String.sub name 0 7 = "fischer"
    in
    if is_fischer then begin
      fischer_new := !fischer_new +. w;
      match old with
      | Some (_, _, _, w_old) -> fischer_old := !fischer_old +. w_old
      | None -> ()
    end;
    let old_json =
      match old with
      | Some (_, _, t_old, w_old) ->
        Telemetry.Json.obj
          [
            ("seconds", Telemetry.Json.of_float t_old);
            ("alloc_words", Telemetry.Json.of_float w_old);
          ]
      | None -> "null"
    in
    let ratio_json =
      match old with
      | Some (_, _, t_old, w_old) when w > 0.0 && t > 0.0 ->
        Telemetry.Json.obj
          [
            ("alloc_reduction", Telemetry.Json.of_float (w_old /. w));
            ("speedup", Telemetry.Json.of_float (t_old /. t));
          ]
      | _ -> "null"
    in
    entries :=
      Telemetry.Json.obj
        [
          ("name", Printf.sprintf "%S" name);
          ("verdict", Printf.sprintf "%S" v);
          ( "new",
            Telemetry.Json.obj
              [
                ("seconds", Telemetry.Json.of_float t);
                ("alloc_words", Telemetry.Json.of_float w);
              ] );
          ("old", old_json);
          ("vs_old", ratio_json);
        ]
      :: !entries;
    (match old with
    | Some (_, _, t_old, w_old) ->
      Printf.printf
        "%-26s %-8s %9s %12.0fw   (old %9s %12.0fw: %4.1fx alloc, %4.1fx time)\n"
        name v (fmt_time t) w (fmt_time t_old) w_old
        (if w > 0.0 then w_old /. w else 0.0)
        (if t > 0.0 then t_old /. t else 0.0)
    | None ->
      Printf.printf "%-26s %-8s %9s %12.0fw   (no baseline)\n" name v
        (fmt_time t) w);
    flush stdout
  in
  let fischer_models ~rounds ~within n =
    match F.problem ~rounds ~property:(F.Cs_within (Q.of_int within)) ~n () with
    | Ok p -> p
    | Error e -> failwith e
  in
  let models_verdict ?(registry = A.Registry.default) ?(options = A.Engine.default_options) p =
    match A.Engine.all_models ~registry ~options ~limit:25 p with
    | Ok (models, _) -> Printf.sprintf "%d models" (List.length models)
    | Error e -> failwith e
  in
  for n = 1 to 3 do
    case ~name:(Printf.sprintf "fischer%d_models_sat" n) (fun () ->
        models_verdict (fischer_models ~rounds:4 ~within:4 n))
  done;
  for n = 1 to 3 do
    case ~name:(Printf.sprintf "fischer%d_models_unsat" n) (fun () ->
        models_verdict (fischer_models ~rounds:6 ~within:2 n))
  done;
  List.iter
    (fun n ->
      case ~name:(Printf.sprintf "fischer%d_solve" n) (fun () ->
          let r, _ = A.Engine.solve (fischer_models ~rounds:6 ~within:2 n) in
          engine_verdict r))
    [ 4; 6 ];
  List.iter
    (fun jobs ->
      case ~name:(Printf.sprintf "car_steering_j%d" jobs) (fun () ->
          let registry =
            {
              A.Registry.default with
              A.Registry.nonlinear =
                [
                  A.Registry.branch_prune_solver
                    ~config:
                      {
                        BP.default_config with
                        BP.max_nodes = 600;
                        samples_per_node = 2;
                        root_samples = 2048;
                      }
                    ~jobs ();
                ];
            }
          in
          let r, _ = A.Engine.solve ~registry (M.Steering.problem ()) in
          engine_verdict r))
    [ 1; 4 ];
  case ~name:"esat_n11_m8" (fun () ->
      let r, _ = A.Engine.solve (esat_problem ()) in
      engine_verdict r);
  case ~name:"div_operator" (fun () ->
      let r, _ = A.Engine.solve (div_operator_problem ()) in
      engine_verdict r);
  let budget_ok =
    !fischer_old = 0.0 || !fischer_new <= !fischer_old /. 2.0
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"flat core (CSR tableau + small rationals)\",\n\
      \  \"baseline\": \"pre-refactor seed, same harness\",\n\
      \  \"fischer_alloc_words_old\": %s,\n\
      \  \"fischer_alloc_words_new\": %s,\n\
      \  \"fischer_alloc_reduction\": %s,\n\
      \  \"fischer_alloc_budget_ok\": %b,\n\
      \  \"verdict_mismatches\": %d,\n\
      \  \"cases\": [\n%s\n  ]\n}\n"
      (Telemetry.Json.of_float !fischer_old)
      (Telemetry.Json.of_float !fischer_new)
      (Telemetry.Json.of_float
         (if !fischer_new > 0.0 then !fischer_old /. !fischer_new else 0.0))
      budget_ok !mismatches
      (String.concat ",\n"
         (List.map (fun e -> "    " ^ e) (List.rev !entries)))
  in
  let oc = open_out "BENCH_flatcore.json" in
  output_string oc json;
  close_out oc;
  Printf.printf
    "fischer family: %.0f allocated words (baseline %.0f, %.1fx reduction)\n\
     wrote BENCH_flatcore.json\n"
    !fischer_new !fischer_old
    (if !fischer_new > 0.0 then !fischer_old /. !fischer_new else 0.0);
  if !mismatches > 0 then begin
    Printf.eprintf "flatcore: %d verdict mismatch(es) against baseline\n"
      !mismatches;
    exit 1
  end;
  if not budget_ok then begin
    Printf.eprintf
      "flatcore: fischer allocation budget exceeded (%.0f > %.0f / 2)\n"
      !fischer_new !fischer_old;
    exit 1
  end

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match which with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "table3" -> table3 ()
  | "ablations" -> ablations ()
  | "micro" -> micro ()
  | "json" -> json_mode ()
  | "parallel" -> parallel_mode ()
  | "incremental" -> incremental_mode ()
  | "server" -> server_mode ()
  | "chaos" -> chaos_mode ()
  | "flatcore" -> flatcore_mode ()
  | "all" ->
    table1 ();
    table2 ();
    table3 ();
    ablations ()
  | other ->
    Printf.eprintf
      "unknown benchmark %S (expected \
       table1|table2|table3|ablations|micro|json|parallel|incremental|server|chaos|flatcore|all)\n"
      other;
    exit 2
