(* Second-wave tests: engine options and budgets, solver-list fallback
   semantics, generator round-trips, and edge cases found during review. *)

module A = Absolver_core
module M = Absolver_model
module E = Absolver_nlp.Expr
module Box = Absolver_nlp.Box
module L = Absolver_lp.Linexpr
module T = Absolver_sat.Types
module AS = Absolver_sat.All_sat
module Q = Absolver_numeric.Rational
module I = Absolver_numeric.Interval

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let parse text =
  match A.Dimacs_ext.parse_string text with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %s" e

(* ------------------------------------------------------------------ *)
(* The paper's solver-list semantics: "at each of those steps a list of
   solvers is used ... if the preceding solvers thereof failed". *)

let test_nonlinear_solver_fallback () =
  let gave_up_calls = ref 0 in
  let give_up =
    {
      A.Registry.ns_solve =
        (fun ~budget:_ ~telemetry:_ ~nvars:_ ~box:_ _ ->
          incr gave_up_calls;
          (A.Registry.N_unknown, Absolver_nlp.Branch_prune.empty_stats));
    }
  in
  let registry =
    {
      A.Registry.default with
      A.Registry.nonlinear = [ give_up; A.Registry.branch_prune_solver () ];
    }
  in
  let p =
    parse "p cnf 1 1\n1 0\nc def real 1 x * x <= 4\nc bound x -10 10\n"
  in
  match A.Engine.solve ~registry p with
  | A.Engine.R_sat sol, _ ->
    check bool_t "first solver was consulted" true (!gave_up_calls >= 1);
    check bool_t "verified" true (A.Solution.check p sol = Ok ())
  | _ -> Alcotest.fail "fallback solver should have answered"

let test_nonlinear_all_solvers_fail () =
  let give_up =
    {
      A.Registry.ns_solve =
        (fun ~budget:_ ~telemetry:_ ~nvars:_ ~box:_ _ ->
          (A.Registry.N_unknown, Absolver_nlp.Branch_prune.empty_stats));
    }
  in
  let registry = { A.Registry.default with A.Registry.nonlinear = [ give_up ] } in
  let p = parse "p cnf 1 1\n1 0\nc def real 1 x * x <= 4\nc bound x -10 10\n" in
  match A.Engine.solve ~registry p with
  | A.Engine.R_unknown _, _ -> ()
  | _ -> Alcotest.fail "no solver could answer: result must be unknown"

(* ------------------------------------------------------------------ *)
(* Engine budgets.                                                     *)

let test_engine_model_budget () =
  (* Many spurious Boolean models, tiny budget: Unknown, not a wrong
     UNSAT. *)
  let p =
    parse
      {|p cnf 4 1
1 2 3 4 0
c def real 1 u >= 5
c def real 2 u <= 1
c def real 3 u >= 7
c def real 4 u <= -1
|}
  in
  let options = { A.Engine.default_options with A.Engine.max_bool_models = 1 } in
  match A.Engine.solve ~options p with
  | A.Engine.R_unknown _, _ | A.Engine.R_sat _, _ -> ()
  | A.Engine.R_unsat, _ -> Alcotest.fail "budget exhaustion must not claim unsat"

let test_engine_eq_split_limit () =
  (* n negated equations u_i != i over [0, 10]: the engine branches on at
     most 12 of them per Boolean model, so 13 must give up honestly. *)
  let negated n =
    let b = Buffer.create 256 in
    Printf.bprintf b "p cnf %d %d\n" n n;
    for i = 1 to n do Printf.bprintf b "-%d 0\n" i done;
    for i = 1 to n do
      Printf.bprintf b "c def real %d u%d = %d\nc bound u%d 0 10\n" i i i i
    done;
    parse (Buffer.contents b)
  in
  (match A.Engine.solve (negated 13) with
  | A.Engine.R_unknown why, _ ->
    check Alcotest.string "reason" "more than 12 negated equations in one Boolean model" why
  | _ -> Alcotest.fail "expected unknown past the split limit");
  (* At the limit it solves. *)
  let p = negated 12 in
  match A.Engine.solve p with
  | A.Engine.R_sat sol, _ -> check bool_t "verified" true (A.Solution.check p sol = Ok ())
  | _ -> Alcotest.fail "expected sat"

let test_engine_minimize_conflicts_same_verdict () =
  let p =
    parse
      {|p cnf 3 2
1 2 0
3 0
c def real 1 u >= 5
c def real 2 u >= 6
c def real 3 u <= 1
|}
  in
  let v options =
    match fst (A.Engine.solve ~options p) with
    | A.Engine.R_sat _ -> "sat"
    | A.Engine.R_unsat -> "unsat"
    | A.Engine.R_unknown _ -> "unknown"
  in
  check Alcotest.string "minimization preserves verdict"
    (v A.Engine.default_options)
    (v { A.Engine.default_options with A.Engine.minimize_conflicts = true })

let test_engine_relaxation_off_still_sound () =
  let p =
    parse
      {|p cnf 2 2
1 0
2 0
c def real 1 x * y >= 4
c def real 2 x + y <= 1
c bound x 0 4
c bound y 0 4
|}
  in
  (* x+y <= 1 with x,y >= 0 gives xy <= 1/4 < 4: unsat either way. *)
  let v flag =
    match
      fst
        (A.Engine.solve
           ~options:{ A.Engine.default_options with A.Engine.use_linear_relaxation = flag }
           p)
    with
    | A.Engine.R_unsat -> "unsat"
    | A.Engine.R_sat _ -> "sat"
    | A.Engine.R_unknown _ -> "unknown"
  in
  check Alcotest.string "relax on" "unsat" (v true);
  check Alcotest.string "relax off" "unsat" (v false)

(* ------------------------------------------------------------------ *)
(* All-SAT streaming interface.                                        *)

(* Stop a handle after two models, then resume it: every strategy visits
   the 8 models of three free variables exactly once. *)
let test_allsat_iter_stop () =
  List.iter
    (fun strategy ->
      let h = AS.create ~phase:false strategy (AS.load ~num_vars:3 []) in
      let take n =
        List.init n (fun _ ->
            match AS.next h with
            | T.Sat ->
              let m = AS.model h in
              AS.block h (AS.blocking ~projection:[ 0; 1; 2 ] m);
              Array.to_list m
            | T.Unsat | T.Unknown -> Alcotest.fail "model expected")
      in
      let first = take 2 in
      let rest = take 6 in
      check bool_t "exhausted" true (AS.next h = T.Unsat);
      check int_t "distinct models" 8
        (List.length (List.sort_uniq compare (first @ rest))))
    [ AS.Incremental; AS.Restarting ]

let test_allsat_count () =
  match AS.count ~num_vars:3 [ [ T.pos 0 ] ] with
  | Ok n -> check int_t "count" 4 n
  | Error e -> Alcotest.fail (Absolver_resource.Absolver_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Model round-trips at scale.                                         *)

let test_steering_text_roundtrip () =
  let d = M.Steering.diagram () in
  let text = M.Simulink_text.to_string ~name:"steering" d in
  match M.Simulink_text.parse_string text with
  | Error e -> Alcotest.fail e
  | Ok (_, d2) -> (
    check int_t "blocks preserved" (M.Diagram.num_blocks d) (M.Diagram.num_blocks d2);
    (* The reparsed diagram converts to an identical-statistics problem. *)
    match M.Convert.diagram_to_ab ~name:"steering" ~output:"ok" d2 with
    | Error e -> Alcotest.fail e
    | Ok p ->
      check bool_t "same stats" true
        (A.Ab_problem.stats p = A.Ab_problem.stats (M.Steering.problem ())))

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let test_steering_lustre_text () =
  let node = M.Steering.lustre_node () in
  let text = M.Lustre.to_string node in
  List.iter
    (fun s -> check bool_t ("mentions " ^ s) true (contains text s))
    [ "yaw"; "a_lat"; "v_fl"; "delta"; "node steering"; "tel" ]

(* ------------------------------------------------------------------ *)
(* Dimacs_ext details.                                                 *)

let test_bound_underscore () =
  let p = parse "p cnf 1 1\n1 0\nc def real 1 x >= 0\nc bound x _ 5\n" in
  let x = Option.get (A.Ab_problem.arith_var_index p "x") in
  match List.assoc_opt x (A.Ab_problem.bounds p) with
  | Some (None, Some hi) -> check bool_t "upper 5" true (Q.equal hi (Q.of_int 5))
  | _ -> Alcotest.fail "expected open lower bound"

let test_def_with_both_sides () =
  (* Relations with expressions on both sides normalize correctly. *)
  let p = parse "p cnf 1 1\n1 0\nc def real 1 2 * x + 1 <= x + 4\n" in
  match A.Ab_problem.defs p with
  | [ d ] -> (
    match E.linearize d.A.Ab_problem.rel.E.expr with
    | Some le ->
      check bool_t "x - 3" true
        (Q.equal (L.coeff le 0) Q.one && Q.equal (L.const le) (Q.of_int (-3)))
    | None -> Alcotest.fail "linear expected")
  | _ -> Alcotest.fail "one def expected"

(* ------------------------------------------------------------------ *)
(* Interval edges.                                                     *)

let test_interval_log_sqrt_domains () =
  check bool_t "log of nonpositive empty" true (I.is_empty (I.log (I.make (-3.0) (-1.0))));
  check bool_t "sqrt of negative empty" true (I.is_empty (I.sqrt (I.make (-3.0) (-1.0))));
  let r = I.sqrt (I.make (-1.0) 4.0) in
  check bool_t "sqrt clips domain" true (r.I.lo >= 0.0 && r.I.hi >= 2.0 && r.I.hi < 2.01);
  let l = I.log (I.make 0.0 1.0) in
  check bool_t "log hits -inf" true (l.I.lo = Float.neg_infinity && l.I.hi >= 0.0)

let test_hc4_max_rounds_terminates () =
  (* A constraint that keeps contracting slowly must still terminate. *)
  let b = Box.of_bounds [ (0, I.make 0.0 1.0) ] 1 in
  let rel =
    {
      E.expr = E.sub (E.mul (E.var 0) (E.const (Q.of_decimal_string "0.5"))) (E.var 0);
      op = L.Ge;
      tag = 0;
    }
  in
  (* x/2 >= x over [0,1] forces x = 0; fixpoint takes many rounds. *)
  let alive, _ = Absolver_nlp.Hc4.(contract ~max_rounds:5 (compile [ rel ]) b) in
  check bool_t "still alive" true alive;
  check bool_t "contracted toward zero" true ((Box.get b 0).I.hi < 1.0)

(* ------------------------------------------------------------------ *)
(* Circuit/solution agreement on a purely linear problem.              *)

let test_circuit_agrees_with_solution () =
  let p =
    parse
      {|p cnf 2 2
1 0
-2 0
c def real 1 u >= 1
c def real 2 u <= 0
c bound u -100 100
|}
  in
  match A.Engine.solve p with
  | A.Engine.R_sat sol, _ ->
    let circuit = A.Ab_problem.to_circuit p in
    let v =
      Absolver_circuit.Circuit.eval
        ~bool_env:(fun b -> Absolver_circuit.Tribool.of_bool sol.A.Solution.bools.(b))
        ~arith_env:(fun av -> A.Solution.arith_env sol av)
        circuit
    in
    (* Exact rational values: the circuit must evaluate to tt. *)
    check bool_t "circuit tt" true (v = Absolver_circuit.Tribool.True)
  | _ -> Alcotest.fail "sat expected"

let suite =
  [
    ("nonlinear solver fallback", `Quick, test_nonlinear_solver_fallback);
    ("all nonlinear solvers fail", `Quick, test_nonlinear_all_solvers_fail);
    ("engine model budget", `Quick, test_engine_model_budget);
    ("engine eq-split limit", `Quick, test_engine_eq_split_limit);
    ("conflict minimization preserves verdict", `Quick, test_engine_minimize_conflicts_same_verdict);
    ("relaxation off still sound", `Quick, test_engine_relaxation_off_still_sound);
    ("all-sat iter stop", `Quick, test_allsat_iter_stop);
    ("all-sat count", `Quick, test_allsat_count);
    ("steering text roundtrip", `Quick, test_steering_text_roundtrip);
    ("steering lustre text", `Quick, test_steering_lustre_text);
    ("bound with open end", `Quick, test_bound_underscore);
    ("def with both sides", `Quick, test_def_with_both_sides);
    ("interval log/sqrt domains", `Quick, test_interval_log_sqrt_domains);
    ("hc4 bounded rounds", `Quick, test_hc4_max_rounds_terminates);
    ("circuit agrees with exact solution", `Quick, test_circuit_agrees_with_solution);
  ]
