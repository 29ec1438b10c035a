(* The incremental DPLL(T) hot path: differential testing of the warm
   LP session against the one-shot solver at the LP level (verdicts,
   models, conflict cores, budget trips mid-query) and of warm against
   per-check sessions at the engine level (solve, all_models, budget
   pressure, nonlinear inputs), plus unit tests for the bound
   delta, the session's size and the simplex checkpoint/rollback API. *)

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
   box rows make most subsets feasible enough to exercise warm starts.
   Every other atom is over one of a few shared linear forms, with its
   own constant and operator, so several atoms bound the same slack. *)
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
  let forms =
    Array.init (1 + Random.State.int st 2) (fun tag ->
        L.drop_const (random_cons st ~nvars ~tag).L.expr)
  in
  let shared tag =
    let form = forms.(Random.State.int st (Array.length forms)) in
    let op = [| L.Le; L.Lt; L.Ge; L.Gt; L.Eq |].(Random.State.int st 5) in
    { L.expr = L.set_const form (Q.of_int (Random.State.int st 11 - 5)); op; tag }
  in
  let pool =
    Array.init size (fun i ->
        if i mod 2 = 0 then random_cons st ~nvars ~tag:i else shared i)
  in
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

(* A session query on a list of atom ids. *)
let solve_ids s ?int_vars ?fixes ids =
  Inc.solve s ?int_vars ?fixes (Array.of_list ids) (List.length ids)

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
  let case = ref 0 and recovered = ref 0 in
  (* 30 independent sessions, 5 queries each = 150 differential cases;
     consecutive queries share a pool so the bound delta and the
     warm-started basis both get real work. Every fourth session runs
     on a zero-step budget until a query trips it mid-check; the queries
     after that run unlimited and must still agree. *)
  for session_no = 1 to 30 do
    let nvars = 2 + Random.State.int st 3 in
    let box, pool = random_pool st ~nvars ~size:8 in
    let session = Inc.create () in
    (* Every atom is registered once; queries name them by id. *)
    let box_ids = List.map (Inc.register session) box in
    let pool_ids = Array.map (Inc.register session) pool in
    let tight = ref (session_no mod 4 = 0) and tripped = ref false in
    for _query = 1 to 5 do
      incr case;
      let picked = random_subset st (Array.init (Array.length pool) Fun.id) in
      let constraints = box @ List.map (fun i -> pool.(i)) picked in
      let ids = box_ids @ List.map (fun i -> pool_ids.(i)) picked in
      let int_vars =
        if Random.State.int st 3 = 0 then [ Random.State.int st nvars ] else []
      in
      let after_trip = !tripped in
      Inc.set_budget session
        (if !tight then Budget.create ~max_steps:0 () else Budget.unlimited);
      let inc = solve_ids session ~int_vars ids in
      let scratch = fst (Sx.solve_system ~int_vars constraints) in
      (match (inc, scratch) with
      | Sx.Sat m, Sx.Sat _ -> model_satisfies ~case:!case constraints m
      | Sx.Unsat core, Sx.Unsat _ ->
        core_is_conflicting ~case:!case ~int_vars constraints core
      | Sx.Unknown _, Sx.Unknown _ -> ()
      | Sx.Unknown _, _ when !tight ->
        tight := false;
        tripped := true
      | _ ->
        Alcotest.failf "case %d: session and from-scratch verdicts differ"
          !case);
      if after_trip then incr recovered;
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
  check bool_t "ran 150 cases" true (!case = 150);
  check bool_t "queries after a budget trip" true (!recovered > 0)

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

(* The incremental session must compose with the nonlinear
   branch-and-prune oracle: same verdicts as from scratch. The case
   keeps the name it had when the oracle could split its search over
   several jobs; the search is sequential now. *)
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
  List.iteri
    (fun i text ->
      match A.Dimacs_ext.parse_string text with
      | Error e -> Alcotest.fail e
      | Ok p ->
        let inc, _ = A.Engine.solve ~options:incremental_options p in
        let scr, _ = A.Engine.solve ~options:scratch_options p in
        check Alcotest.string
          (Printf.sprintf "jobs case %d" i)
          (verdict_tag scr) (verdict_tag inc);
        List.iter
          (fun r ->
            match r with
            | A.Engine.R_sat sol -> (
              match A.Solution.check p sol with
              | Ok () -> ()
              | Error e -> Alcotest.failf "jobs case %d: model broken: %s" i e)
            | _ -> ())
          [ inc; scr ])
    problems

(* ------------------------------------------------------------------ *)
(* The compiled problem against the per-model construction it replaced:
   for one Boolean model, every LP query the engine sends (in order)
   must be the conjunction [fixed @ combo @ bounds] that linearizing
   each definition literal and its negation gives, with the nonlinear
   relations relaxed over auxiliary variables numbered per combo.      *)

(* The relaxation as built per combo: each maximal nonlinear subterm gets
   the next auxiliary variable at its first occurrence, bounded by its
   interval range over [box]. *)
let reference_relax ~nvars ~box nonlinear =
  let table = Hashtbl.create 16 and bounds = ref [] in
  let aux e =
    let key = E.to_string e in
    match Hashtbl.find_opt table key with
    | Some v -> L.var v
    | None ->
      let v = nvars + Hashtbl.length table in
      Hashtbl.add table key v;
      let range = E.eval_interval (Absolver_nlp.Box.env box) e in
      let bound x op =
        if (not (Absolver_numeric.Interval.is_empty range)) && Float.is_finite x then
          bounds :=
            { L.expr = L.add_term (L.constant (Q.neg (Q.of_float x))) Q.one v; op;
              tag = A.Ab_problem.bounds_tag }
            :: !bounds
      in
      bound range.Absolver_numeric.Interval.lo L.Ge;
      bound range.Absolver_numeric.Interval.hi L.Le;
      L.var v
  in
  let rec lin (e : E.t) =
    match E.linearize e with
    | Some le -> le
    | None -> (
      match e with
      | E.Add (a, b) -> L.add (lin a) (lin b)
      | E.Sub (a, b) -> L.sub (lin a) (lin b)
      | E.Neg a -> L.neg (lin a)
      | E.Mul (a, b) -> (
        match (E.linearize a, E.linearize b) with
        | Some la, _ when L.is_constant la -> L.scale (L.const la) (lin b)
        | _, Some lb when L.is_constant lb -> L.scale (L.const lb) (lin a)
        | _ -> aux e)
      | E.Div (a, b) -> (
        match E.linearize b with
        | Some lb when L.is_constant lb && not (Q.is_zero (L.const lb)) ->
          L.scale (Q.inv (L.const lb)) (lin a)
        | _ -> aux e)
      | _ -> aux e)
  in
  let relaxed = List.map (fun (r : E.rel) -> { L.expr = lin r.E.expr; op = r.E.op; tag = r.E.tag }) nonlinear in
  relaxed @ !bounds

let reference_queries p model =
  let fixed, groups =
    List.fold_left
      (fun (fixed, groups) v ->
        let rels = List.map (fun (d : A.Ab_problem.def) -> d.rel) (A.Ab_problem.find_defs p v) in
        if model.(v) then (rels @ fixed, groups)
        else
          match List.concat_map E.negate_rel rels with
          | [ r ] -> (r :: fixed, groups)
          | rs -> (fixed, rs :: groups))
      ([], []) (A.Ab_problem.defined_vars p)
  in
  let rec combinations = function
    | [] -> [ [] ]
    | g :: rest -> List.concat_map (fun r -> List.map (List.cons r) (combinations rest)) g
  in
  let nvars = A.Ab_problem.num_arith_vars p and box = A.Preprocess.initial_box p in
  List.map
    (fun combo ->
      let linear, nonlinear =
        List.partition_map
          (fun (r : E.rel) ->
            match E.linearize r.E.expr with
            | Some le -> Either.Left { L.expr = le; op = r.E.op; tag = r.E.tag }
            | None -> Either.Right r)
          (fixed @ combo @ A.Ab_problem.bound_rels p)
      in
      if nonlinear = [] then linear else linear @ reference_relax ~nvars ~box nonlinear)
    (combinations groups)

let random_expr st ~nvars =
  let rec go depth =
    let leaf () =
      if Random.State.bool st then E.Var (Random.State.int st nvars)
      else E.Const (Q.of_int (Random.State.int st 7 - 3))
    in
    if depth = 0 then leaf ()
    else
      let sub () = go (depth - 1) in
      match Random.State.int st 13 with
      | 0 -> leaf ()
      | 1 -> E.Neg (sub ())
      | 2 | 3 -> E.Add (sub (), sub ())
      | 4 -> E.Sub (sub (), sub ())
      | 5 | 6 -> E.Mul (sub (), sub ())
      | 7 -> E.Div (sub (), sub ())
      | 8 -> E.Pow (sub (), 2 + Random.State.int st 2)
      | 9 -> E.Sqrt (sub ())
      | 10 -> E.Exp (sub ())
      | 11 -> E.Log (sub ())
      | _ -> if Random.State.bool st then E.Sin (sub ()) else E.Cos (sub ())
  in
  go (1 + Random.State.int st 3)

(* Definitions over every operator and comparison, one to two per
   Boolean variable, and unit clauses that leave one Boolean model. *)
let random_compiled_case seed =
  let st = Random.State.make [| seed |] in
  let p = A.Ab_problem.create () in
  let nvars = 1 + Random.State.int st 3 in
  for i = 0 to nvars - 1 do
    let v = A.Ab_problem.intern_arith_var p (Printf.sprintf "x%d" i) in
    A.Ab_problem.set_bounds p v ~lower:(Q.of_int (-4)) ~upper:(Q.of_int 5) ()
  done;
  let nbools = 1 + Random.State.int st 5 in
  let model = Array.init nbools (fun _ -> Random.State.bool st) in
  for b = 0 to nbools - 1 do
    for _ = 0 to Random.State.int st 2 do
      let op = [| L.Le; L.Lt; L.Ge; L.Gt; L.Eq |].(Random.State.int st 5) in
      let domain = if Random.State.int st 4 = 0 then A.Ab_problem.Dint else A.Ab_problem.Dreal in
      A.Ab_problem.define p ~bool_var:b ~domain { E.expr = random_expr st ~nvars; op; tag = b }
    done;
    A.Ab_problem.add_clause p [ (if model.(b) then T.pos b else T.neg_of_var b) ]
  done;
  (p, model)

(* A linear solver that records each LP query as the constraints its
   atom ids stand for, around the default session; and a nonlinear
   solver that refutes every subsystem, so every combo gets its query. *)
let recording_registry () =
  let queries = ref [] in
  let atoms = Hashtbl.create 16 in
  let session ~budget ~warm =
    let s = A.Registry.simplex_solver.A.Registry.ls_session ~budget ~warm in
    {
      A.Registry.lsess_atom =
        (fun c ->
          let id = s.A.Registry.lsess_atom c in
          Hashtbl.replace atoms id c;
          id);
      lsess_solve =
        (fun ~int_vars ~fixes ids n ->
          if fixes = [] then
            queries := List.init n (fun k -> Hashtbl.find atoms ids.(k)) :: !queries;
          s.A.Registry.lsess_solve ~int_vars ~fixes ids n);
      lsess_counters = s.A.Registry.lsess_counters;
    }
  in
  let refute =
    {
      A.Registry.ns_solve = (fun ~budget:_ ~telemetry:_ ~nvars:_ ~box:_ _ ->
        (A.Registry.N_unsat, Absolver_nlp.Branch_prune.empty_stats));
    }
  in
  ( { A.Registry.default with
      A.Registry.linear = { A.Registry.ls_session = session };
      nonlinear = [ refute ] },
    fun () -> List.rev !queries )

let same_cons (a : L.cons) (b : L.cons) = L.equal a.L.expr b.L.expr && a.L.op = b.L.op && a.L.tag = b.L.tag

let compiled_matches_reference =
  QCheck.Test.make ~name:"compiled atoms match per-model linearization" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p, model = random_compiled_case seed in
      let registry, recorded = recording_registry () in
      List.iter
        (fun use_incremental ->
          let options = { A.Engine.default_options with A.Engine.use_presolve = false; use_incremental } in
          ignore (A.Engine.solve ~registry ~options p))
        [ true; false ];
      let expected = reference_queries p model in
      let rec prefix got want =
        match (got, want) with
        | [], _ -> true
        | q :: got, r :: want -> List.equal same_cons q r && prefix got want
        | _ :: _, [] -> false
      in
      (* Two solves, warm then cold, each recording its queries. *)
      let got = recorded () in
      let half = List.length got / 2 in
      let warm = List.filteri (fun i _ -> i < half) got
      and cold = List.filteri (fun i _ -> i >= half) got in
      got <> [] && warm = cold && prefix warm expected)

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

let solve_cons s cs = solve_ids s (List.map (Inc.register s) cs)

let expect_sat s what cs =
  match solve_cons s cs with
  | Sx.Sat _ -> ()
  | _ -> Alcotest.failf "%s should be sat" what

let test_delta_order () =
  let s = Inc.create () in
  let c1 = cons_of ~tag:1 [ (1, 0) ] (-5) L.Le in
  let c2 = cons_of ~tag:2 [ (1, 1) ] (-5) L.Le in
  let c3 = cons_of ~tag:3 [ (1, 0); (1, 1) ] (-8) L.Ge in
  let c4 = cons_of ~tag:4 [ (1, 0); (-1, 1) ] 0 L.Ge in
  expect_sat s "first query" [ c1; c2; c3; c4 ];
  check int_t "asserted after q1" 4 (Inc.stats s).Inc.asserted;
  (* The same atoms in another order are the same bounds. *)
  expect_sat s "permuted query" [ c4; c2; c1; c3 ];
  check int_t "asserted after q2" 4 (Inc.stats s).Inc.asserted;
  check int_t "retracted after q2" 0 (Inc.stats s).Inc.retracted;
  check int_t "reused after q2" 4 (Inc.stats s).Inc.reused

let test_delta_symmetric () =
  (* Replacing the first of five atoms changes one bound out and one in;
     nothing after it is re-asserted. *)
  let s = Inc.create () in
  let atoms = List.init 5 (fun v -> cons_of ~tag:v [ (1, v) ] (-5) L.Le) in
  expect_sat s "five atoms" atoms;
  check int_t "asserted after q1" 5 (Inc.stats s).Inc.asserted;
  let replaced = cons_of ~tag:9 [ (1, 0); (1, 1) ] (-20) L.Le :: List.tl atoms in
  expect_sat s "first atom replaced" replaced;
  check int_t "asserted after q2" 6 (Inc.stats s).Inc.asserted;
  check int_t "retracted after q2" 1 (Inc.stats s).Inc.retracted;
  check int_t "reused after q2" 4 (Inc.stats s).Inc.reused

let test_delta_shared_slack () =
  (* Atoms over one form bound one slack: dropping the tighter of two
     upper bounds must really loosen it. Checked over a slack row and
     over a variable bounded directly. *)
  List.iter
    (fun form ->
      let s = Inc.create () in
      let le3 = cons_of ~tag:1 form (-3) L.Le in
      let le5 = cons_of ~tag:2 form (-5) L.Le in
      expect_sat s "x <= 3, x <= 5" [ le3; le5 ];
      expect_sat s "x <= 5" [ le5 ];
      expect_sat s "x <= 5, x >= 4" [ le5; cons_of ~tag:3 form (-4) L.Ge ];
      match solve_cons s [ le5; cons_of ~tag:4 form (-6) L.Ge ] with
      | Sx.Unsat core ->
        check (Alcotest.list int_t) "core" [ 2; 4 ] (List.sort compare core)
      | _ -> Alcotest.fail "x <= 5, x >= 6 should be unsat")
    [ [ (1, 0); (1, 1) ]; [ (1, 0) ] ]

let test_delta_duplicate () =
  let s = Inc.create () in
  let c1 = cons_of ~tag:1 [ (1, 0) ] (-5) L.Le in
  check int_t "one id for an atom registered twice" (Inc.register s c1)
    (Inc.register s (cons_of ~tag:1 [ (1, 0) ] (-5) L.Le));
  expect_sat s "duplicated atom" [ c1; c1 ];
  check int_t "one bound for two copies" 1 (Inc.stats s).Inc.asserted;
  expect_sat s "single atom" [ c1 ];
  check int_t "nothing retracted" 0 (Inc.stats s).Inc.retracted;
  check int_t "the bound reused" 1 (Inc.stats s).Inc.reused

let test_session_size () =
  (* A witness re-solve fixes each nonlinear variable to its float value:
     a new constant every time. A long-lived session (the server keeps
     one per client) must not grow with them. *)
  let s = Inc.create () in
  let atoms =
    [
      cons_of ~tag:1 [ (1, 0); (1, 1) ] (-10) L.Le;
      cons_of ~tag:2 [ (1, 0); (-1, 1) ] 5 L.Ge;
      cons_of ~tag:3 [ (1, 1) ] 0 L.Ge;
      cons_of ~tag:4 [ (2, 0); (3, 1); (1, 2) ] (-30) L.Le;
    ]
    |> List.map (Inc.register s)
  in
  let words = ref 0 in
  for i = 1 to 1_000 do
    let fix =
      {
        L.expr = L.add_term (L.constant (Q.of_float (-.float_of_int i /. 250.))) Q.one 0;
        op = L.Eq;
        tag = -3;
      }
    in
    ignore (solve_ids s ~fixes:[ fix ] atoms);
    if i = 10 then words := Obj.reachable_words (Obj.repr s)
  done;
  let final = Obj.reachable_words (Obj.repr s) in
  if final > 2 * !words then
    Alcotest.failf "session grew from %d to %d words" !words final

let test_persistent_session_size () =
  (* The server keeps one warm session per client across its requests,
     and every request registers its own atoms: they must not pile up. *)
  let solver, _ = A.Registry.persistent_simplex () in
  let words = ref 0 in
  for i = 1 to 300 do
    let s = solver.A.Registry.ls_session ~budget:Budget.unlimited ~warm:true in
    let ids =
      List.map s.A.Registry.lsess_atom
        [ cons_of ~tag:1 [ (1, 0); (1, 1) ] (-i) L.Le; cons_of ~tag:2 [ (1, 0) ] 0 L.Ge ]
    in
    ignore (s.A.Registry.lsess_solve ~int_vars:[] ~fixes:[] (Array.of_list ids) 2);
    if i = 10 then words := Obj.reachable_words (Obj.repr solver)
  done;
  let final = Obj.reachable_words (Obj.repr solver) in
  if final > 2 * !words then
    Alcotest.failf "persistent session grew from %d to %d words" !words final

(* Allocation guard: a warm query allocates a fixed number of words,
   whatever its number of atoms, as the engine's refuted models need.
   Over [n] variables, each query holds [0 <= x_v <= 30], the rows
   [x_v + x_(v+1) <= 20] and [x_0 >= 15, x_1 >= 15], which the first
   row refutes without a pivot: about [3n] atoms. It is asked again
   unchanged, and with the last variable's upper bound moved to 32 and
   back, so each query retracts and asserts one bound. A query that
   allocated per atom (a list cell, a closure) would pass the bound
   by far at several hundred atoms. *)
let max_query_words = 200.

let test_query_alloc () =
  List.iter
    (fun n ->
      let s = Inc.create () in
      let atoms =
        List.concat
          (List.init n (fun v ->
               [ cons_of ~tag:(4 * v) [ (1, v) ] 0 L.Ge; cons_of ~tag:((4 * v) + 1) [ (1, v) ] (-30) L.Le ]
               @
               if v + 1 < n then [ cons_of ~tag:((4 * v) + 2) [ (1, v); (1, v + 1) ] (-20) L.Le ]
               else []))
        @ [ cons_of ~tag:(4 * n) [ (1, 0) ] (-15) L.Ge; cons_of ~tag:((4 * n) + 1) [ (1, 1) ] (-15) L.Ge ]
      in
      let ids = Array.of_list (List.map (Inc.register s) atoms) in
      let moved = Array.copy ids in
      (* [x_(n-1) <= 30] is the atom just before the two [>= 15] ones. *)
      let last = Array.length ids - 3 in
      moved.(last) <- Inc.register s (cons_of ~tag:(4 * n + 2) [ (1, n - 1) ] (-32) L.Le);
      let query ids =
        match Inc.solve s ids (Array.length ids) with
        | Sx.Unsat _ -> ()
        | _ -> Alcotest.failf "%d variables: the query should be unsat" n
      in
      query ids;
      (* Ten queries, the [k]th on [pick k]. *)
      let words what pick =
        let w0 = Gc.minor_words () in
        for k = 1 to 10 do
          query (pick k)
        done;
        let per = (Gc.minor_words () -. w0) /. 10. in
        if per > max_query_words then
          Alcotest.failf "%d variables (%d atoms), %s: %.0f words per query" n (Array.length ids)
            what per
      in
      words "same atoms" (fun _ -> ids);
      words "one bound moved" (fun k -> if k mod 2 = 1 then moved else ids);
      check int_t "one bound retracted per moved query" 10 (Inc.stats s).Inc.retracted)
    [ 50; 200 ]

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
  (* Per-check sessions carry nothing over, also from a registry whose
     warm session outlives the solve. *)
  let persistent, _ = A.Registry.persistent_simplex () in
  List.iter
    (fun registry ->
      for _ = 1 to 2 do
        let _, scr_stats = A.Engine.solve ~registry ~options:scratch_options p in
        check int_t "per-check sessions reuse nothing" 0
          (A.Engine.counter scr_stats "lp.inc.reused")
      done)
    [ A.Registry.default; { A.Registry.default with A.Registry.linear = persistent } ]

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
    QCheck_alcotest.to_alcotest ~long:false compiled_matches_reference;
    Alcotest.test_case "delta ignores order" `Quick test_delta_order;
    Alcotest.test_case "delta is a symmetric difference" `Quick
      test_delta_symmetric;
    Alcotest.test_case "atoms share a slack" `Quick test_delta_shared_slack;
    Alcotest.test_case "duplicate atom counts once" `Quick test_delta_duplicate;
    Alcotest.test_case "session size bounded under witness fixes" `Quick
      test_session_size;
    Alcotest.test_case "persistent session bounded across solves" `Quick
      test_persistent_session_size;
    Alcotest.test_case "warm query allocates a fixed amount" `Quick test_query_alloc;
    Alcotest.test_case "checkpoint/rollback" `Quick test_checkpoint_rollback;
    Alcotest.test_case "run stats surface" `Quick test_run_stats_surface;
  ]
