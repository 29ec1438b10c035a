(* The incremental DPLL(T) hot path: differential testing of the
   persistent warm-started LP session against the from-scratch solver —
   at the LP level (verdicts, models, conflict cores) and at the engine
   level (solve, all_models, budget pressure, parallel nonlinear jobs) —
   plus unit tests for the delta computation and the simplex
   checkpoint/rollback API. *)

module A = Absolver_core
module E = Absolver_nlp.Expr
module L = Absolver_lp.Linexpr
module Sx = Absolver_lp.Simplex
module Inc = Absolver_lp.Incremental
module T = Absolver_sat.Types
module Q = Absolver_numeric.Rational
module DR = Absolver_numeric.Delta_rational
module Budget = Absolver_resource.Budget

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Generators.                                                         *)

let random_cons st ~nvars ~tag =
  let nterms = 1 + Random.State.int st 3 in
  let expr = ref (L.constant (Q.of_int (Random.State.int st 11 - 5))) in
  for _ = 1 to nterms do
    let c = Random.State.int st 7 - 3 in
    if c <> 0 then
      expr := L.add_term !expr (Q.of_int c) (Random.State.int st nvars)
  done;
  let op =
    match Random.State.int st 8 with
    | 0 | 1 -> L.Le
    | 2 -> L.Lt
    | 3 | 4 -> L.Ge
    | 5 -> L.Gt
    | _ -> L.Eq
  in
  { L.expr = !expr; op; tag }

(* A pool of constraints plus box bounds keeping systems bounded; the
   box rows make most subsets feasible enough to exercise warm starts. *)
let random_pool st ~nvars ~size =
  let box =
    List.concat
      (List.init nvars (fun v ->
           [
             { L.expr = L.add_term (L.constant (Q.of_int 12)) Q.one v;
               op = L.Ge;
               tag = 1000 + (2 * v);
             };
             { L.expr = L.add_term (L.constant (Q.of_int (-12))) Q.one v;
               op = L.Le;
               tag = 1001 + (2 * v);
             };
           ]))
  in
  let pool = Array.init size (fun i -> random_cons st ~nvars ~tag:i) in
  (box, pool)

let random_subset st pool =
  Array.to_list pool
  |> List.filter (fun _ -> Random.State.bool st)

(* Same shape as the resource suite's generator: a linear AB-problem
   with enough Boolean structure to make the engine enumerate several
   models per solve. *)
let random_linear_problem st =
  let nvars_arith = 2 + Random.State.int st 3 in
  let n_defs = 2 + Random.State.int st 5 in
  let p = A.Ab_problem.create () in
  let vars =
    List.init nvars_arith (fun i ->
        A.Ab_problem.intern_arith_var p (Printf.sprintf "v%d" i))
  in
  List.iter
    (fun v ->
      A.Ab_problem.set_bounds p v ~lower:(Q.of_int (-10)) ~upper:(Q.of_int 10)
        ())
    vars;
  for b = 0 to n_defs - 1 do
    let nterms = 1 + Random.State.int st 2 in
    let terms =
      List.init nterms (fun _ ->
          E.mul
            (E.const (Q.of_int (1 + Random.State.int st 3)))
            (E.var (Random.State.int st nvars_arith)))
    in
    let expr =
      E.sub (E.sum terms) (E.const (Q.of_int (Random.State.int st 9 - 4)))
    in
    let op =
      match Random.State.int st 5 with
      | 0 | 1 -> L.Le
      | 2 | 3 -> L.Ge
      | _ -> L.Eq
    in
    A.Ab_problem.define p ~bool_var:b ~domain:A.Ab_problem.Dreal
      { E.expr; op; tag = b }
  done;
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

let incremental_options = A.Engine.default_options

let scratch_options =
  { A.Engine.default_options with A.Engine.use_incremental = false }

let verdict_tag = function
  | A.Engine.R_sat _ -> "sat"
  | A.Engine.R_unsat -> "unsat"
  | A.Engine.R_unknown _ -> "unknown"

(* ------------------------------------------------------------------ *)
(* LP-level differential: Incremental.solve vs Simplex.solve_system.   *)

let model_satisfies ~case constraints model =
  let env v = Option.value ~default:Q.zero (List.assoc_opt v model) in
  List.iter
    (fun c ->
      if not (L.holds env c) then
        Alcotest.failf "case %d: session model violates tag %d" case c.L.tag)
    constraints

let core_is_conflicting ~case ~int_vars constraints core =
  let tags = List.map (fun (c : L.cons) -> c.L.tag) constraints in
  List.iter
    (fun g ->
      if not (List.mem g tags) then
        Alcotest.failf "case %d: core tag %d not among inputs" case g)
    core;
  let subset =
    List.filter (fun (c : L.cons) -> List.mem c.L.tag core) constraints
  in
  match fst (Sx.solve_system ~int_vars subset) with
  | Sx.Unsat _ -> ()
  | Sx.Sat _ -> Alcotest.failf "case %d: returned core is satisfiable" case
  | Sx.Unknown _ -> Alcotest.failf "case %d: core re-check unknown" case

let test_lp_differential () =
  let st = Random.State.make [| 0x1AC5E |] in
  let case = ref 0 in
  (* 30 independent sessions, 5 queries each = 150 differential cases;
     consecutive queries share a pool so the delta path and the
     warm-started basis both get real work. *)
  for _session = 1 to 30 do
    let nvars = 2 + Random.State.int st 3 in
    let box, pool = random_pool st ~nvars ~size:6 in
    let session = Inc.create () in
    for _query = 1 to 5 do
      incr case;
      let constraints = box @ random_subset st pool in
      let int_vars =
        if Random.State.int st 3 = 0 then [ Random.State.int st nvars ] else []
      in
      let inc = Inc.solve session ~int_vars constraints in
      let scratch = fst (Sx.solve_system ~int_vars constraints) in
      (match (inc, scratch) with
      | Sx.Sat m, Sx.Sat _ -> model_satisfies ~case:!case constraints m
      | Sx.Unsat core, Sx.Unsat _ ->
        core_is_conflicting ~case:!case ~int_vars constraints core
      | Sx.Unknown _, Sx.Unknown _ -> ()
      | _ ->
        Alcotest.failf "case %d: session and from-scratch verdicts differ"
          !case);
      (* Integer models must actually be integral on the int vars. *)
      match inc with
      | Sx.Sat m ->
        List.iter
          (fun v ->
            match List.assoc_opt v m with
            | Some q when not (Q.is_integer q) ->
              Alcotest.failf "case %d: non-integral int var" !case
            | _ -> ())
          int_vars
      | _ -> ()
    done
  done;
  check bool_t "ran 150 cases" true (!case = 150)

(* ------------------------------------------------------------------ *)
(* Engine-level differential: solve and all_models, incremental vs
   from-scratch.                                                       *)

let test_engine_solve_differential () =
  let st = Random.State.make [| 0xD1FF |] in
  for case = 1 to 120 do
    let p = random_linear_problem st in
    let inc, _ = A.Engine.solve ~options:incremental_options p in
    let scr, _ = A.Engine.solve ~options:scratch_options p in
    check Alcotest.string
      (Printf.sprintf "case %d verdict" case)
      (verdict_tag scr) (verdict_tag inc);
    List.iter
      (fun r ->
        match r with
        | A.Engine.R_sat sol -> (
          match A.Solution.check p sol with
          | Ok () -> ()
          | Error e -> Alcotest.failf "case %d: model broken: %s" case e)
        | _ -> ())
      [ inc; scr ]
  done

let bools_of_solutions sols =
  List.sort compare
    (List.map (fun (s : A.Solution.t) -> Array.to_list s.A.Solution.bools) sols)

let test_engine_all_models_differential () =
  let st = Random.State.make [| 0xA11 |] in
  for case = 1 to 60 do
    let p = random_linear_problem st in
    match
      ( A.Engine.all_models ~options:incremental_options p,
        A.Engine.all_models ~options:scratch_options p )
    with
    | Ok (inc, _), Ok (scr, _) ->
      check int_t
        (Printf.sprintf "case %d model count" case)
        (List.length scr) (List.length inc);
      check bool_t
        (Printf.sprintf "case %d model sets" case)
        true
        (bools_of_solutions inc = bools_of_solutions scr);
      List.iter
        (fun sol ->
          match A.Solution.check p sol with
          | Ok () -> ()
          | Error e -> Alcotest.failf "case %d: enumerated model broken: %s" case e)
        inc
    | Error e1, Error e2 ->
      (* Both incomplete is fine, for the same reason. *)
      check Alcotest.string (Printf.sprintf "case %d error" case) e2 e1
    | Ok _, Error e | Error e, Ok _ ->
      Alcotest.failf "case %d: only one engine enumerated (%s)" case e
  done

(* Budget pressure must degrade to Unknown, never flip an answer, and
   never break a model — same contract as the resource suite, applied to
   the incremental path. *)
let test_budget_pressure_no_flip () =
  let st = Random.State.make [| 0xB4D6E |] in
  for case = 1 to 60 do
    let p = random_linear_problem st in
    let reference, _ = A.Engine.solve ~options:scratch_options p in
    let budget =
      match Random.State.int st 3 with
      | 0 -> Budget.create ~max_steps:(1 + Random.State.int st 400) ()
      | 1 -> Budget.create ~deadline_seconds:0.0 ()
      | _ ->
        let b = Budget.create () in
        Budget.cancel b;
        b
    in
    let options = { incremental_options with A.Engine.budget } in
    let degraded, _ = A.Engine.solve ~options p in
    (match (verdict_tag reference, verdict_tag degraded) with
    | "sat", "unsat" | "unsat", "sat" ->
      Alcotest.failf "case %d: budget pressure flipped the answer" case
    | _ -> ());
    match degraded with
    | A.Engine.R_sat sol -> (
      match A.Solution.check p sol with
      | Ok () -> ()
      | Error e -> Alcotest.failf "case %d: budgeted model broken: %s" case e)
    | _ -> ()
  done

(* The incremental session must compose with a parallel nonlinear
   solver: same verdicts with [jobs > 1] as from scratch. *)
let test_jobs_differential () =
  let problems =
    [
      "p cnf 2 2\n1 0\n2 0\nc def real 1 x * x <= 2\nc def real 2 x >= 1\n\
       c bound x 0 10\n";
      "p cnf 2 2\n1 0\n2 0\nc def real 1 x * x >= 9\nc def real 2 x <= 2\n\
       c bound x 0 10\n";
      "p cnf 2 1\n1 2 0\nc def real 1 x * y >= 4\nc def real 2 x + y <= 1\n\
       c bound x 0 5\nc bound y 0 5\n";
    ]
  in
  let registry =
    {
      A.Registry.default with
      A.Registry.nonlinear = [ A.Registry.branch_prune_solver ~jobs:2 () ];
    }
  in
  List.iteri
    (fun i text ->
      match A.Dimacs_ext.parse_string text with
      | Error e -> Alcotest.fail e
      | Ok p ->
        let inc, _ = A.Engine.solve ~registry ~options:incremental_options p in
        let scr, _ = A.Engine.solve ~registry ~options:scratch_options p in
        check Alcotest.string
          (Printf.sprintf "jobs case %d" i)
          (verdict_tag scr) (verdict_tag inc))
    problems

(* ------------------------------------------------------------------ *)
(* Unit tests: delta computation.                                      *)

let cons_of ~tag coeffs k op =
  let expr =
    List.fold_left
      (fun acc (c, v) -> L.add_term acc (Q.of_int c) v)
      (L.constant (Q.of_int k))
      coeffs
  in
  { L.expr; op; tag }

let test_delta_reuse () =
  let s = Inc.create () in
  let c1 = cons_of ~tag:1 [ (1, 0) ] (-5) L.Le in
  let c2 = cons_of ~tag:2 [ (1, 1) ] (-5) L.Le in
  let c3 = cons_of ~tag:3 [ (1, 0); (1, 1) ] (-8) L.Ge in
  let c4 = cons_of ~tag:4 [ (1, 0); (-1, 1) ] 0 L.Ge in
  (match Inc.solve s [ c1; c2; c3 ] with
  | Sx.Sat _ -> ()
  | _ -> Alcotest.fail "first query should be sat");
  let count name = List.assoc ("lp.inc." ^ name) (Inc.counters s) in
  check int_t "asserted after q1" 3 (count "asserted");
  check int_t "retracted after q1" 0 (count "retracted");
  (* Shared bottom prefix c1,c2: only c3 is retracted, only c4 pushed. *)
  (match Inc.solve s [ c1; c2; c4 ] with
  | Sx.Sat _ -> ()
  | _ -> Alcotest.fail "second query should be sat");
  check int_t "asserted after q2" 4 (count "asserted");
  check int_t "retracted after q2" 1 (count "retracted");
  check int_t "reused after q2" 2 (count "reused");
  (* Order-insensitivity: the same multiset in another order is a full
     prefix match — nothing asserted, nothing retracted. *)
  (match Inc.solve s [ c4; c2; c1 ] with
  | Sx.Sat _ -> ()
  | _ -> Alcotest.fail "third query should be sat");
  check int_t "asserted after q3" 4 (count "asserted");
  check int_t "retracted after q3" 1 (count "retracted");
  check int_t "reused after q3" 5 (count "reused")

let test_delta_multiset () =
  (* Duplicate constraints are tracked as a multiset: dropping one copy
     of a duplicated row retracts exactly one frame. *)
  let s = Inc.create () in
  let c1 = cons_of ~tag:1 [ (1, 0) ] (-5) L.Le in
  ignore (Inc.solve s [ c1; c1 ]);
  let count name = List.assoc ("lp.inc." ^ name) (Inc.counters s) in
  check int_t "two frames for two copies" 2 (count "asserted");
  ignore (Inc.solve s [ c1 ]);
  check int_t "one copy retracted" 1 (count "retracted");
  check int_t "one copy reused" 1 (count "reused")

(* ------------------------------------------------------------------ *)
(* Unit tests: simplex checkpoint/rollback.                           *)

let test_checkpoint_rollback () =
  let sx = Sx.create () in
  Sx.ensure_vars sx 2;
  (match Sx.assert_cons sx (cons_of ~tag:1 [ (1, 0) ] (-5) L.Le) with
  | Sx.Feasible -> ()
  | Sx.Infeasible _ -> Alcotest.fail "x <= 5 infeasible?");
  let cp = Sx.checkpoint sx in
  Sx.push sx;
  (match Sx.assert_cons sx (cons_of ~tag:2 [ (1, 0) ] (-7) L.Ge) with
  | Sx.Infeasible _ -> ()
  | Sx.Feasible -> (
    match Sx.check sx with
    | Sx.Infeasible _ -> ()
    | Sx.Feasible -> Alcotest.fail "x <= 5 && x >= 7 should be infeasible"));
  Sx.rollback sx cp;
  (match Sx.check sx with
  | Sx.Feasible -> ()
  | Sx.Infeasible _ -> Alcotest.fail "rollback should restore feasibility");
  (* Rolling back to the current depth is a no-op; a target above the
     current trail depth raises. *)
  Sx.rollback sx cp;
  Sx.push sx;
  let deep = Sx.checkpoint sx in
  Sx.rollback sx cp;
  match Sx.rollback sx deep with
  | () -> Alcotest.fail "rollback above the trail should raise"
  | exception Invalid_argument _ -> ()

let test_run_stats_surface () =
  (* The incremental run populates the new stats columns and they show
     up in both renderings. *)
  let st = Random.State.make [| 0x57A7 |] in
  let p = random_linear_problem st in
  let _, stats = A.Engine.solve ~options:incremental_options p in
  check bool_t "session did work" true
    (A.Engine.counter stats "lp.inc.asserted" > 0
    || A.Engine.counter stats "engine.linear_checks" = 0);
  let json = A.Engine.run_stats_json stats in
  let contains sub =
    let n = String.length json and m = String.length sub in
    let rec go i = i + m <= n && (String.sub json i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key -> check bool_t key true (contains ("\"" ^ key ^ "\"")))
    [ "lp.inc.asserted"; "lp.inc.retracted"; "lp.inc.reused" ];
  let scr, scr_stats = A.Engine.solve ~options:scratch_options p in
  ignore scr;
  check int_t "from-scratch run asserts nothing" 0
    (A.Engine.counter scr_stats "lp.inc.asserted")

let suite =
  [
    Alcotest.test_case "lp differential (150 cases)" `Slow test_lp_differential;
    Alcotest.test_case "engine solve differential (120 cases)" `Slow
      test_engine_solve_differential;
    Alcotest.test_case "all_models differential (60 cases)" `Slow
      test_engine_all_models_differential;
    Alcotest.test_case "budget pressure never flips (60 cases)" `Slow
      test_budget_pressure_no_flip;
    Alcotest.test_case "jobs>1 differential" `Quick test_jobs_differential;
    Alcotest.test_case "delta reuse" `Quick test_delta_reuse;
    Alcotest.test_case "delta multiset" `Quick test_delta_multiset;
    Alcotest.test_case "checkpoint/rollback" `Quick test_checkpoint_rollback;
    Alcotest.test_case "run stats surface" `Quick test_run_stats_surface;
  ]
