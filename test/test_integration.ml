(* Cross-module integration tests: full pipelines, agreement between
   independent solving routes, and end-to-end properties. *)

module A = Absolver_core
module B = Absolver_baselines
module M = Absolver_model
module SL = Absolver_smtlib
module E = Absolver_nlp.Expr
module L = Absolver_lp.Linexpr
module T = Absolver_sat.Types
module Q = Absolver_numeric.Rational

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Engine vs tight baseline on random linear AB-problems.              *)

let random_linear_problem st =
  let nvars_arith = 2 + Random.State.int st 3 in
  let n_defs = 2 + Random.State.int st 5 in
  let p = A.Ab_problem.create () in
  let vars =
    List.init nvars_arith (fun i ->
        A.Ab_problem.intern_arith_var p (Printf.sprintf "v%d" i))
  in
  List.iter
    (fun v -> A.Ab_problem.set_bounds p v ~lower:(Q.of_int (-10)) ~upper:(Q.of_int 10) ())
    vars;
  for b = 0 to n_defs - 1 do
    let nterms = 1 + Random.State.int st 2 in
    let terms =
      List.init nterms (fun _ ->
          E.mul
            (E.const (Q.of_int (1 + Random.State.int st 3)))
            (E.var (Random.State.int st nvars_arith)))
    in
    let expr = E.sub (E.sum terms) (E.const (Q.of_int (Random.State.int st 9 - 4))) in
    let op = if Random.State.bool st then L.Le else L.Ge in
    A.Ab_problem.define p ~bool_var:b ~domain:A.Ab_problem.Dreal { E.expr; op; tag = b }
  done;
  (* Random small CNF over the defined variables. *)
  let n_clauses = 1 + Random.State.int st 4 in
  for _ = 1 to n_clauses do
    let len = 1 + Random.State.int st 3 in
    let clause =
      List.init len (fun _ ->
          let v = Random.State.int st n_defs in
          if Random.State.bool st then T.pos v else T.neg_of_var v)
    in
    A.Ab_problem.add_clause p clause
  done;
  p

let verdict_engine p =
  match fst (A.Engine.solve p) with
  | A.Engine.R_sat sol ->
    (match A.Solution.check p sol with
    | Ok () -> "sat"
    | Error e -> "sat-BROKEN: " ^ e)
  | A.Engine.R_unsat -> "unsat"
  | A.Engine.R_unknown w -> "unknown: " ^ w

let verdict_baseline p =
  match B.Mathsat_like.solve p with
  | B.Common.B_sat sol ->
    (match A.Solution.check p sol with
    | Ok () -> "sat"
    | Error e -> "sat-BROKEN: " ^ e)
  | r -> B.Common.result_name r

let test_engine_vs_baseline_random () =
  let st = Random.State.make [| 2024 |] in
  for i = 1 to 120 do
    let p = random_linear_problem st in
    let a = verdict_engine p and b = verdict_baseline p in
    if a <> b then
      Alcotest.failf "iteration %d: engine=%s baseline=%s\n%s" i a b
        (A.Dimacs_ext.to_string p)
  done

(* Restarting vs incremental enumeration find the same Boolean models.
   With at most 6 Boolean variables each enumeration runs to the end, so
   the two sets are comparable whatever order each strategy visits them
   in. *)
let test_enumeration_strategies_agree () =
  let st = Random.State.make [| 77 |] in
  for _ = 1 to 30 do
    let p = random_linear_problem st in
    let models registry =
      match A.Engine.all_models ~registry p with
      | Ok (models, _) ->
        List.sort compare
          (List.map (fun (s : A.Solution.t) -> Array.to_list s.A.Solution.bools) models)
      | Error e -> Alcotest.fail e
    in
    check
      Alcotest.(list (list bool))
      "strategy models equal"
      (models A.Registry.default)
      (models A.Registry.with_chaff)
  done

(* ------------------------------------------------------------------ *)
(* File-level pipeline: write, reload, same verdict.                   *)

let test_file_roundtrip_pipeline () =
  let p = M.Steering.problem () in
  let path = Filename.temp_file "absolver" ".cnf" in
  A.Dimacs_ext.write_file path p;
  (match A.Dimacs_ext.parse_file path with
  | Error e -> Alcotest.fail e
  | Ok p2 ->
    check bool_t "stats preserved" true (A.Ab_problem.stats p = A.Ab_problem.stats p2));
  Sys.remove path

let test_simulink_file_pipeline () =
  (* Model text -> diagram -> AB-problem -> solve; all through files. *)
  let text =
    {|model gate
block 0 Inport temp -40 125
block 1 Inport limit 0 100
block 2 Relop >
block 3 Outport alarm
wire 0 2 0
wire 1 2 1
wire 2 3 0
|}
  in
  let path = Filename.temp_file "model" ".mdl" in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  (match M.Simulink_text.parse_file path with
  | Error e -> Alcotest.fail e
  | Ok (name, d) -> (
    check bool_t "name" true (name = "gate");
    match M.Convert.diagram_to_ab ~goal:`Find_witness ~output:"alarm" d with
    | Error e -> Alcotest.fail e
    | Ok problem -> (
      match A.Engine.solve problem with
      | A.Engine.R_sat sol, _ ->
        let tv = Option.get (A.Ab_problem.arith_var_index problem "temp") in
        let lv = Option.get (A.Ab_problem.arith_var_index problem "limit") in
        check bool_t "temp > limit" true
          (A.Solution.float_env sol ~default:0.0 tv
          > A.Solution.float_env sol ~default:0.0 lv)
      | _ -> Alcotest.fail "witness expected")));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* SMT-LIB generated text through the whole stack.                     *)

let test_fischer_text_through_stack () =
  let b = SL.Fischer.benchmark ~rounds:3 ~property:(SL.Fischer.Cs_within (Q.of_int 4)) ~n:2 () in
  let text = SL.Ast.to_string b in
  match SL.Parser.parse_benchmark text with
  | Error e -> Alcotest.fail e
  | Ok parsed -> (
    match SL.To_ab.convert parsed with
    | Error e -> Alcotest.fail e
    | Ok problem -> (
      (* Also survive the extended-DIMACS roundtrip. *)
      let dimacs = A.Dimacs_ext.to_string problem in
      match A.Dimacs_ext.parse_string dimacs with
      | Error e -> Alcotest.fail e
      | Ok problem2 -> (
        match (fst (A.Engine.solve problem), fst (A.Engine.solve problem2)) with
        | A.Engine.R_sat _, A.Engine.R_sat _ -> ()
        | _ -> Alcotest.fail "verdicts differ across the DIMACS roundtrip")))

(* The nonlinear witness path: a problem whose solution must mix exact
   linear values and approximate nonlinear ones. *)
let test_mixed_exact_approx_solution () =
  let text =
    {|p cnf 2 2
1 0
2 0
c def int 1 n >= 4
c def real 2 x * x <= 2
c bound n 0 10
c bound x 0.5 10
|}
  in
  match A.Dimacs_ext.parse_string text with
  | Error e -> Alcotest.fail e
  | Ok p -> (
    match A.Engine.solve p with
    | A.Engine.R_sat sol, _ ->
      check bool_t "verified" true (A.Solution.check p sol = Ok ());
      let n = Option.get (A.Ab_problem.arith_var_index p "n") in
      let x = Option.get (A.Ab_problem.arith_var_index p "x") in
      (* n must be exact (pure linear), x approximate (nonlinear). *)
      (match sol.A.Solution.arith.(n) with
      | Some (A.Solution.Exact q) -> check bool_t "n >= 4" true (Q.geq q (Q.of_int 4))
      | _ -> Alcotest.fail "n should be exact");
      (match sol.A.Solution.arith.(x) with
      | Some v ->
        let f = A.Solution.value_to_float v in
        check bool_t "x in [0.5, sqrt 2]" true (f >= 0.5 -. 1e-9 && f <= Float.sqrt 2.0 +. 1e-6)
      | None -> Alcotest.fail "x missing")
    | _ -> Alcotest.fail "sat expected")

let suite =
  [
    ("engine vs baseline on random problems", `Quick, test_engine_vs_baseline_random);
    ("enumeration strategies agree", `Quick, test_enumeration_strategies_agree);
    ("file roundtrip pipeline", `Quick, test_file_roundtrip_pipeline);
    ("simulink file pipeline", `Quick, test_simulink_file_pipeline);
    ("fischer text through stack", `Quick, test_fischer_text_through_stack);
    ("mixed exact/approximate solution", `Quick, test_mixed_exact_approx_solution);
  ]
