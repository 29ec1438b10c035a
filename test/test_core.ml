(* Tests for the ABSOLVER core: Ab_problem, Dimacs_ext, Engine, Solution,
   Registry. *)

module A = Absolver_core
module E = Absolver_nlp.Expr
module L = Absolver_lp.Linexpr
module T = Absolver_sat.Types
module Q = Absolver_numeric.Rational

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let parse text =
  match A.Dimacs_ext.parse_string text with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %s" e

let fig2 =
  {|p cnf 4 3
1 0
-2 3 0
4 0
c def int 1 i >= 0
c def int 1 j >= 0
c def int 2 2*i + j < 10
c def int 3 i + j < 5
c def real 4 a * x + 3.5 / ( 4 - y ) + 2 * y >= 7.1
c bound a -10 10
c bound x -10 10
c bound y -10 3.9
|}

(* ------------------------------------------------------------------ *)
(* Ab_problem.                                                         *)

let test_ab_problem_build () =
  let p = A.Ab_problem.create () in
  let x = A.Ab_problem.intern_arith_var p "x" in
  check int_t "interning stable" x (A.Ab_problem.intern_arith_var p "x");
  check string_t "name back" "x" (A.Ab_problem.arith_var_name p x);
  check bool_t "lookup" true (A.Ab_problem.arith_var_index p "x" = Some x);
  check bool_t "missing" true (A.Ab_problem.arith_var_index p "y" = None);
  A.Ab_problem.define p ~bool_var:0 ~domain:A.Ab_problem.Dreal
    { E.expr = E.var x; op = L.Ge; tag = 0 };
  A.Ab_problem.add_clause p [ T.pos 0 ];
  check int_t "bool vars" 1 (A.Ab_problem.num_bool_vars p);
  check int_t "defs" 1 (List.length (A.Ab_problem.defs p));
  check bool_t "validate" true (A.Ab_problem.validate p = Ok ())

let test_ab_problem_multiple_defs () =
  let p = parse fig2 in
  (* Variable 1 carries two definitions (i >= 0 and j >= 0). *)
  check int_t "defs of var 1" 2 (List.length (A.Ab_problem.find_defs p 0));
  check int_t "total defs" 5 (List.length (A.Ab_problem.defs p));
  check int_t "defined vars" 4 (List.length (A.Ab_problem.defined_vars p));
  (* Duplicate define is ignored. *)
  let x = Option.get (A.Ab_problem.arith_var_index p "i") in
  A.Ab_problem.define p ~bool_var:0 ~domain:A.Ab_problem.Dint
    { E.expr = E.var x; op = L.Ge; tag = 0 };
  check int_t "duplicate ignored" 2 (List.length (A.Ab_problem.find_defs p 0))

let test_ab_problem_stats () =
  let s = A.Ab_problem.stats (parse fig2) in
  check int_t "clauses" 3 s.A.Ab_problem.n_clauses;
  check int_t "bool vars" 4 s.A.Ab_problem.n_bool_vars;
  check int_t "linear" 4 s.A.Ab_problem.n_linear;
  check int_t "nonlinear" 1 s.A.Ab_problem.n_nonlinear;
  check int_t "int defs" 4 s.A.Ab_problem.n_int_defs;
  check int_t "real defs" 1 s.A.Ab_problem.n_real_defs

let test_ab_problem_bounds () =
  let p = parse fig2 in
  let a = Option.get (A.Ab_problem.arith_var_index p "a") in
  (match List.assoc_opt a (A.Ab_problem.bounds p) with
  | Some (Some lo, Some hi) ->
    check bool_t "lo" true (Q.equal lo (Q.of_int (-10)));
    check bool_t "hi" true (Q.equal hi (Q.of_int 10))
  | _ -> Alcotest.fail "bounds missing");
  (* bound_rels are tagged with bounds_tag. *)
  check bool_t "bound rels tagged" true
    (List.for_all
       (fun (r : E.rel) -> r.E.tag = A.Ab_problem.bounds_tag)
       (A.Ab_problem.bound_rels p))

let test_ab_problem_validate_errors () =
  let p = A.Ab_problem.create () in
  A.Ab_problem.add_clause p [];
  (match A.Ab_problem.validate p with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty clause accepted")

let test_ab_problem_circuit () =
  let p = parse fig2 in
  let c = A.Ab_problem.to_circuit p in
  check int_t "comparisons = defs" 5
    (List.length (Absolver_circuit.Circuit.comparisons c));
  (* Under the known solution the output pin must be tt. *)
  match A.Engine.solve p with
  | A.Engine.R_sat sol, _ ->
    let v =
      Absolver_circuit.Circuit.eval
        ~bool_env:(fun b -> Absolver_circuit.Tribool.of_bool sol.A.Solution.bools.(b))
        ~arith_env:(fun av -> A.Solution.arith_env sol av)
        c
    in
    (* Arithmetic values may be approximate (nonlinear witness), in which
       case the comparison gates stay unknown; accept tt or ?. *)
    check bool_t "output not ff" true (v <> Absolver_circuit.Tribool.False)
  | (A.Engine.R_unsat | A.Engine.R_unknown _), _ -> Alcotest.fail "fig2 should be sat"

(* ------------------------------------------------------------------ *)
(* Dimacs_ext.                                                         *)

let test_dimacs_ext_roundtrip () =
  let p = parse fig2 in
  let text = A.Dimacs_ext.to_string p in
  let p2 = parse text in
  check bool_t "stats stable" true (A.Ab_problem.stats p = A.Ab_problem.stats p2);
  check int_t "bounds stable" (List.length (A.Ab_problem.bounds p))
    (List.length (A.Ab_problem.bounds p2))

let test_dimacs_ext_expr_parser () =
  let p = A.Ab_problem.create () in
  let cases =
    [
      ("1 + 2 * 3", Q.of_int 7);
      ("(1 + 2) * 3", Q.of_int 9);
      ("2 ^ 3 + 1", Q.of_int 9);
      ("-2 + 5", Q.of_int 3);
      ("10 / 4", Q.of_ints 5 2);
      ("1 - 2 - 3", Q.of_int (-4));
      ("3.5 * 2", Q.of_int 7);
      ("2 ^ -1", Q.of_ints 1 2);
    ]
  in
  List.iter
    (fun (text, expected) ->
      match A.Dimacs_ext.parse_expr p text with
      | Ok (E.Const q) -> check bool_t text true (Q.equal q expected)
      | Ok e -> Alcotest.failf "%s did not fold: %s" text (E.to_string e)
      | Error e -> Alcotest.failf "%s: %s" text e)
    cases

let test_dimacs_ext_expr_functions () =
  let p = A.Ab_problem.create () in
  match A.Dimacs_ext.parse_expr p "sqrt(x) + exp(y) - sin(x * y)" with
  | Ok e ->
    check int_t "two vars" 2 (List.length (E.vars e));
    check bool_t "nonlinear" false (E.is_linear e)
  | Error e -> Alcotest.fail e

let test_dimacs_ext_parse_errors () =
  let bad input =
    match A.Dimacs_ext.parse_string input with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" input
  in
  bad "p cnf 1 1\n1 0\nc def int 1 i >=\n";
  bad "p cnf 1 1\n1 0\nc def frobnicate 1 i >= 0\n";
  bad "p cnf 1 1\n1 0\nc def int 0 i >= 0\n";
  bad "p cnf 1 1\n1 0\nc bound x abc 1\n";
  bad "p cnf 1 1\n1 x 0\n"

let test_dimacs_ext_rel_parser () =
  let p = A.Ab_problem.create () in
  match A.Dimacs_ext.parse_rel p "2 * u + 1 <= u + 4" with
  | Ok r ->
    check bool_t "op" true (r.E.op = L.Le);
    (* normalized to (2u + 1) - (u + 4) = u - 3 *)
    (match E.linearize r.E.expr with
    | Some le ->
      check bool_t "coeff 1" true (Q.equal (L.coeff le 0) Q.one);
      check bool_t "const -3" true (Q.equal (L.const le) (Q.of_int (-3)))
    | None -> Alcotest.fail "should be linear")
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Engine.                                                             *)

let test_engine_fig2 () =
  let p = parse fig2 in
  match A.Engine.solve p with
  | A.Engine.R_sat sol, stats ->
    check bool_t "verified" true (A.Solution.check p sol = Ok ());
    check bool_t "examined >= 1 model" true
      (A.Engine.counter stats "engine.bool_models" >= 1)
  | (A.Engine.R_unsat | A.Engine.R_unknown _), _ -> Alcotest.fail "fig2 sat"

let test_engine_pure_boolean () =
  let p = parse "p cnf 2 2\n1 2 0\n-1 2 0\n" in
  (match A.Engine.solve p with
  | A.Engine.R_sat sol, _ -> check bool_t "x2 true" true sol.A.Solution.bools.(1)
  | _ -> Alcotest.fail "sat");
  let p = parse "p cnf 1 2\n1 0\n-1 0\n" in
  match A.Engine.solve p with
  | A.Engine.R_unsat, _ -> ()
  | _ -> Alcotest.fail "unsat"

let test_engine_linear_conflict_refinement () =
  (* Boolean part allows both x<=1 and x>=2 to be true; arithmetic
     refutes it; engine must flip to a consistent model. *)
  let text =
    {|p cnf 2 1
1 0
c def real 1 u <= 1
c def real 2 u >= 2
|}
  in
  let p = parse text in
  match A.Engine.solve p with
  | A.Engine.R_sat sol, stats ->
    check bool_t "verified" true (A.Solution.check p sol = Ok ());
    check bool_t "var2 false" false sol.A.Solution.bools.(1);
    check bool_t "used conflicts or direct model" true
      (A.Engine.counter stats "engine.linear_conflicts" >= 0)
  | _ -> Alcotest.fail "sat expected"

let test_engine_arith_unsat () =
  (* delta-semantics force an unsatisfiable arithmetic combination. *)
  let text =
    {|p cnf 2 2
1 0
2 0
c def real 1 u <= 1
c def real 2 u >= 2
|}
  in
  match A.Engine.solve (parse text) with
  | A.Engine.R_unsat, _ -> ()
  | _ -> Alcotest.fail "unsat expected"

let test_engine_negated_equation_split () =
  (* not (u = 3) with 2.5 <= u <= 3.5 and u integer: u must be 3... so
     asserting variable 1 false is unsat; asserting it true is sat. *)
  let text =
    {|p cnf 1 1
-1 0
c def int 1 u = 3
c bound u 2.6 3.4
|}
  in
  match A.Engine.solve (parse text) with
  | A.Engine.R_unsat, stats ->
    check bool_t "branched" true
      (A.Engine.counter stats "engine.eq_branches" >= 2)
  | _ -> Alcotest.fail "unsat expected (no integer != 3 in [2.6, 3.4])"

let test_engine_negated_equation_sat () =
  let text =
    {|p cnf 1 1
-1 0
c def real 1 u = 3
c bound u 0 10
|}
  in
  match A.Engine.solve (parse text) with
  | A.Engine.R_sat sol, _ ->
    check bool_t "verified" true (A.Solution.check (parse text) sol = Ok ())
  | _ -> Alcotest.fail "sat expected"

let test_engine_all_models () =
  (* Two free defined variables over disjoint intervals: exactly the
     arithmetically consistent delta-valuations are enumerated. *)
  let text =
    {|p cnf 2 1
1 2 0
c def real 1 u <= 1
c def real 2 u >= 2
|}
  in
  match A.Engine.all_models (parse text) with
  | Ok (models, _) ->
    (* (T,F) and (F,T) are consistent; (T,T) is not; (F,F) fails clause. *)
    check int_t "model count" 2 (List.length models)
  | Error e -> Alcotest.fail e

let test_engine_all_models_limit () =
  let text = "p cnf 3 1\n1 2 3 0\n" in
  match A.Engine.all_models ~limit:4 (parse text) with
  | Ok (models, _) -> check int_t "limited" 4 (List.length models)
  | Error e -> Alcotest.fail e

let test_engine_count_models () =
  let text = "p cnf 2 1\n1 2 0\n" in
  match A.Engine.all_models (parse text) with
  | Ok (models, stats) ->
    let n = List.length models in
    check int_t "count" 3 n;
    check bool_t "stats examine at least n models" true
      (A.Engine.counter stats "engine.bool_models" >= n)
  | Error e -> Alcotest.fail e

let test_engine_chaff_registry_agrees () =
  let p () = parse fig2 in
  let r1 = fst (A.Engine.solve ~registry:A.Registry.default (p ())) in
  let r2 = fst (A.Engine.solve ~registry:A.Registry.with_chaff (p ())) in
  let name = function
    | A.Engine.R_sat _ -> "sat"
    | A.Engine.R_unsat -> "unsat"
    | A.Engine.R_unknown _ -> "unknown"
  in
  check string_t "registries agree" (name r1) (name r2)

let test_engine_unconditional_bound_conflict () =
  (* Bounds alone contradictory: immediately unsat. *)
  let text = "p cnf 1 1\n1 0\nc def real 1 u >= 0\nc bound u 5 2\n" in
  match A.Engine.solve (parse text) with
  | A.Engine.R_unsat, _ -> ()
  | _ -> Alcotest.fail "unsat expected"

let test_engine_solution_values_respect_domain () =
  let text =
    {|p cnf 2 2
1 0
2 0
c def int 1 3 * u >= 7
c def int 2 u <= 5
c bound u 0 100
|}
  in
  let p = parse text in
  match A.Engine.solve p with
  | A.Engine.R_sat sol, _ ->
    let u = Option.get (A.Ab_problem.arith_var_index p "u") in
    let v = A.Solution.float_env sol ~default:(-1.0) u in
    check bool_t "integral" true (Float.abs (v -. Float.round v) < 1e-9);
    check bool_t "in range" true (v >= 3.0 -. 1e-9 && v <= 5.0 +. 1e-9)
  | _ -> Alcotest.fail "sat expected"

(* ------------------------------------------------------------------ *)
(* Solution checking.                                                  *)

let test_solution_check_rejects_bad () =
  let p = parse fig2 in
  match A.Engine.solve p with
  | A.Engine.R_sat sol, _ ->
    (* Corrupt the Boolean part: variable 4 must be true (unit clause). *)
    let bad_bools = Array.copy sol.A.Solution.bools in
    bad_bools.(3) <- false;
    let bad = A.Solution.make ~bools:bad_bools ~arith:sol.A.Solution.arith ~certified:false in
    (match A.Solution.check p bad with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "corrupted solution accepted")
  | _ -> Alcotest.fail "sat expected"

let suite =
  [
    ("ab_problem build", `Quick, test_ab_problem_build);
    ("ab_problem multiple defs per var", `Quick, test_ab_problem_multiple_defs);
    ("ab_problem stats", `Quick, test_ab_problem_stats);
    ("ab_problem bounds", `Quick, test_ab_problem_bounds);
    ("ab_problem validation", `Quick, test_ab_problem_validate_errors);
    ("ab_problem circuit view", `Quick, test_ab_problem_circuit);
    ("dimacs_ext roundtrip", `Quick, test_dimacs_ext_roundtrip);
    ("dimacs_ext expression parser", `Quick, test_dimacs_ext_expr_parser);
    ("dimacs_ext function symbols", `Quick, test_dimacs_ext_expr_functions);
    ("dimacs_ext parse errors", `Quick, test_dimacs_ext_parse_errors);
    ("dimacs_ext relation parser", `Quick, test_dimacs_ext_rel_parser);
    ("engine fig2", `Quick, test_engine_fig2);
    ("engine pure boolean", `Quick, test_engine_pure_boolean);
    ("engine conflict refinement", `Quick, test_engine_linear_conflict_refinement);
    ("engine arithmetic unsat", `Quick, test_engine_arith_unsat);
    ("engine negated equation unsat", `Quick, test_engine_negated_equation_split);
    ("engine negated equation sat", `Quick, test_engine_negated_equation_sat);
    ("engine all models", `Quick, test_engine_all_models);
    ("engine all models limit", `Quick, test_engine_all_models_limit);
    ("engine count models", `Quick, test_engine_count_models);
    ("engine chaff registry agrees", `Quick, test_engine_chaff_registry_agrees);
    ("engine contradictory bounds", `Quick, test_engine_unconditional_bound_conflict);
    ("engine integer domains", `Quick, test_engine_solution_values_respect_domain);
    ("solution check rejects corruption", `Quick, test_solution_check_rejects_bad);
  ]
