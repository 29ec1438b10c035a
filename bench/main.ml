(* Benchmark harness: regenerates every table of the paper's evaluation
   (Sec. 5) plus the ablation studies DESIGN.md calls out.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe table1     -- nonlinear problems (Table 1)
     dune exec bench/main.exe table2     -- SMT-LIB FISCHER family (Table 2)
     dune exec bench/main.exe table3     -- Sudoku (Table 3)
     dune exec bench/main.exe ablations  -- design-choice ablations

   Absolute times are not expected to match a 2007 notebook; the shapes
   (who wins, rough factors, where solvers reject or abort) are.  The
   end-to-end and per-layer measurements live in benchsuite/. *)

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
    (fmt_time t_plain) (A.Engine.counter st_plain "engine.bool_models");
  Printf.printf "   + deletion filter  : %s, %d Boolean models examined\n"
    (fmt_time t_min) (A.Engine.counter st_min "engine.bool_models");
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
            }
          (steer ()))
  in
  let (r_on, st_on), t_on = run_relax true in
  let (r_off, st_off), t_off = run_relax false in
  Printf.printf "   relaxation on : %-8s %s (%d models, %d LP conflicts)\n"
    (engine_verdict r_on) (fmt_time t_on)
    (A.Engine.counter st_on "engine.bool_models")
    (A.Engine.counter st_on "engine.linear_conflicts");
  Printf.printf "   relaxation off: %-8s %s (%d models, %d LP conflicts)\n"
    (engine_verdict r_off) (fmt_time t_off)
    (A.Engine.counter st_off "engine.bool_models")
    (A.Engine.counter st_off "engine.linear_conflicts");
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
    (fmt_time t_split) (A.Engine.counter st_split "engine.eq_branches");
  Printf.printf "   plain eq : %-8s %s (%d eq-branches)\n" (engine_verdict r_eq)
    (fmt_time t_eq) (A.Engine.counter st_eq "engine.eq_branches");
  flush stdout;
  (* 7. The presolve layer (SAT inprocessing + LP presolve + ICP) on/off,
        one line per table: steering, the Table 3 puzzles summed, and
        FISCHER6. *)
  print_endline "-- presolve layer (SAT inprocessing + LP presolve + interval prop.)";
  let presolve_family name ?(registry = A.Registry.default) problems =
    let run flag =
      let options = { A.Engine.default_options with A.Engine.use_presolve = flag } in
      List.fold_left
        (fun (verdicts, t, pre_t, fixed, models) problem ->
          let (r, st), dt = time (fun () -> A.Engine.solve ~registry ~options problem) in
          ( engine_verdict r :: verdicts,
            t +. dt,
            pre_t +. st.A.Engine.presolve_seconds,
            fixed + A.Engine.counter st "presolve.fixed_literals",
            models + A.Engine.counter st "engine.bool_models" ))
        ([], 0.0, 0.0, 0, 0) problems
    in
    let v_on, t_on, pre_on, fixed_on, models_on = run true in
    let v_off, t_off, _, _, models_off = run false in
    Printf.printf
      "   %-20s on %s (presolve %s, %d vars fixed, %d models)  off %s (%d models)%s\n"
      name (fmt_time t_on) (fmt_time pre_on) fixed_on models_on (fmt_time t_off)
      models_off
      (if v_on = v_off then "" else "  !! verdicts differ");
    flush stdout
  in
  presolve_family "car steering" ~registry:steering_registry [ steer () ];
  presolve_family "Table 3 (10 puzzles)"
    (List.map (fun (_, puzzle) -> S.absolver_problem puzzle) P.all);
  presolve_family "FISCHER6" [ fischer ];
  print_newline ()

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match which with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "table3" -> table3 ()
  | "ablations" -> ablations ()
  | "all" ->
    table1 ();
    table2 ();
    table3 ();
    ablations ()
  | other ->
    Printf.eprintf
      "unknown benchmark %S (expected table1|table2|table3|ablations|all)\n"
      other;
    exit 2
