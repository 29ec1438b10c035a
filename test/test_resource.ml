(* The resource governor: budget unit tests, deterministic fault
   injection at every pipeline boundary, and a randomized differential
   fuzzer checking the anytime contract — budget pressure may turn
   SAT/UNSAT into UNKNOWN but must never flip an answer, and no
   exception may escape a public entry point. *)

module A = Absolver_core
module B = Absolver_baselines
module Budget = Absolver_resource.Budget
module Err = Absolver_resource.Absolver_error
module Faults = Absolver_resource.Faults
module AS = Absolver_sat.All_sat
module E = Absolver_nlp.Expr
module L = Absolver_lp.Linexpr
module T = Absolver_sat.Types
module Q = Absolver_numeric.Rational
module Telemetry = Absolver_telemetry.Telemetry

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Budget unit tests.                                                  *)

let test_unlimited_is_free () =
  let b = Budget.unlimited in
  check bool_t "unlimited" true (Budget.is_unlimited b);
  for _ = 1 to 10_000 do
    Budget.tick b
  done;
  Budget.charge b 1_000_000;
  Budget.cancel b;
  check bool_t "never trips" true (Budget.check b = None);
  check bool_t "no reason" true (Budget.tripped b = None);
  check int_t "no steps counted" 0 (Budget.steps b);
  check bool_t "no deadline" true (Budget.remaining_seconds b = None)

let test_step_budget () =
  let b = Budget.create ~max_steps:5 () in
  for _ = 1 to 5 do
    Budget.tick b
  done;
  check bool_t "within budget" true (Budget.tripped b = None);
  (match Budget.tick b with
  | () -> Alcotest.fail "tick 6 should raise"
  | exception Budget.Exhausted (Err.Out_of_budget Err.Steps) -> ()
  | exception _ -> Alcotest.fail "wrong exception");
  check bool_t "sticky" true
    (Budget.tripped b = Some (Err.Out_of_budget Err.Steps));
  (* Once tripped, every tick keeps raising. *)
  (match Budget.tick b with
  | () -> Alcotest.fail "tick after trip should raise"
  | exception Budget.Exhausted _ -> ());
  check int_t "steps counted" 7 (Budget.steps b)

let test_deadline () =
  let b = Budget.create ~deadline_seconds:0.005 () in
  check bool_t "has remaining" true (Budget.remaining_seconds b <> None);
  Unix.sleepf 0.02;
  check bool_t "deadline trips" true (Budget.check b = Some Err.Timeout);
  check bool_t "sticky" true (Budget.tripped b = Some Err.Timeout);
  (match Budget.check_exn b with
  | () -> Alcotest.fail "check_exn should raise after the deadline"
  | exception Budget.Exhausted Err.Timeout -> ())

let test_memory_budget () =
  let b = Budget.create ~max_words:1_000 () in
  match Budget.charge b 1_000_000 with
  | () -> Alcotest.fail "charge should raise"
  | exception Budget.Exhausted (Err.Out_of_budget Err.Memory) ->
    check bool_t "sticky" true
      (Budget.tripped b = Some (Err.Out_of_budget Err.Memory))

let test_cancellation () =
  let b = Budget.create () in
  check bool_t "initially fine" true (Budget.check b = None);
  Budget.cancel b;
  check bool_t "cancelled" true (Budget.check b = Some Err.Cancelled);
  check bool_t "sticky" true (Budget.tripped b = Some Err.Cancelled)

let test_first_trip_wins () =
  let b = Budget.create () in
  Budget.trip b Err.Timeout;
  Budget.trip b Err.Cancelled;
  check bool_t "first reason kept" true (Budget.tripped b = Some Err.Timeout)

let test_guard () =
  let b = Budget.create () in
  check bool_t "passes values" true (Budget.guard b (fun () -> 42) = Ok 42);
  check bool_t "converts Exhausted" true
    (Budget.guard b (fun () -> raise (Budget.Exhausted Err.Timeout))
    = Error Err.Timeout);
  let b2 = Budget.create () in
  (match Budget.guard b2 (fun () -> failwith "boom") with
  | Error (Err.Internal _) -> ()
  | _ -> Alcotest.fail "stray exception should become Internal");
  (match Budget.tripped b2 with
  | Some (Err.Internal _) -> ()
  | _ -> Alcotest.fail "stray exception should trip the budget")

let test_budget_child_parent_cancel () =
  let parent = Budget.create () in
  let child = Budget.child parent () in
  check bool_t "child starts clean" true (Budget.check child = None);
  Budget.cancel parent;
  check bool_t "parent cancel reaches child" true
    (Budget.check child = Some Err.Cancelled)

let test_budget_child_isolated () =
  let parent = Budget.create () in
  let c1 = Budget.child parent () in
  let c2 = Budget.child parent () in
  Budget.cancel c1;
  check bool_t "cancelled child trips" true (Budget.check c1 <> None);
  check bool_t "parent unaffected" true (Budget.check parent = None);
  check bool_t "sibling unaffected" true (Budget.check c2 = None)

let test_budget_child_deadline_clipped () =
  (* The child's deadline is the tighter of its own and the parent's. *)
  let parent = Budget.create ~deadline_seconds:0.005 () in
  let child = Budget.child parent ~deadline_seconds:60.0 () in
  (match Budget.remaining_seconds child with
  | Some r -> check bool_t "clipped to the parent's deadline" true (r <= 0.005)
  | None -> Alcotest.fail "child lost the parent's deadline");
  let loose = Budget.create ~deadline_seconds:60.0 () in
  let tight = Budget.child loose ~deadline_seconds:0.005 () in
  Unix.sleepf 0.02;
  check bool_t "child trips at the parent's deadline" true
    (Budget.check child = Some Err.Timeout);
  check bool_t "child trips at its own deadline" true
    (Budget.check tight = Some Err.Timeout);
  check bool_t "a child's timeout stays below" true
    (Budget.tripped parent = None && Budget.check loose = None)

let test_error_rendering () =
  check Alcotest.string "timeout" "timeout" (Err.to_string Err.Timeout);
  List.iter
    (fun e ->
      check bool_t "code is one token" true
        (not (String.contains (Err.code e) ' ')))
    [
      Err.Timeout;
      Err.Cancelled;
      Err.Out_of_budget Err.Steps;
      Err.Out_of_budget Err.Memory;
      Err.Internal "x";
    ]

(* ------------------------------------------------------------------ *)
(* Problems for the fuzzer and the fault harness.                      *)

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
    let op = if Random.State.bool st then L.Le else L.Ge in
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

(* A mixed linear + nonlinear problem that reaches every in-engine fault
   point: presolve (CNF, LP rows and interval contraction all have work),
   the SAT search, the per-model linear check (simplex with an integer
   variable) and the nonlinear branch-and-prune. *)
let mixed_problem () =
  let text =
    "p cnf 2 2\n1 0\n2 0\nc def int 1 n >= 4\nc def real 2 x * x <= 2\n\
     c bound n 0 10\nc bound x 0.5 10\n"
  in
  match A.Dimacs_ext.parse_string text with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* A budget with the given random tight limit; index 3 is a
   pre-cancelled budget, exercising the cooperative-cancellation path. *)
let tight_budget st =
  match Random.State.int st 4 with
  | 0 -> Budget.create ~max_steps:(1 + Random.State.int st 400) ()
  | 1 -> Budget.create ~deadline_seconds:0.0 ()
  | 2 -> Budget.create ~max_words:(1_000 + Random.State.int st 100_000) ()
  | _ ->
    let b = Budget.create () in
    Budget.cancel b;
    b

let verdict_tag = function
  | A.Engine.R_sat _ -> `Sat
  | A.Engine.R_unsat -> `Unsat
  | A.Engine.R_unknown _ -> `Unknown

let no_flip ~case ~what reference degraded =
  match (reference, degraded) with
  | `Sat, `Unsat | `Unsat, `Sat ->
    Alcotest.failf "case %d: %s flipped the answer under budget pressure"
      case what
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Differential fuzzing: engine and DPLL(T) baseline under tight
   budgets vs the unbudgeted engine.                                   *)

let fuzz_cases = 500

let test_fuzz_never_flips () =
  let st = Random.State.make [| 0xB0D6E7 |] in
  for case = 1 to fuzz_cases do
    let p = random_linear_problem st in
    let reference =
      match fst (A.Engine.solve p) with
      | A.Engine.R_sat sol ->
        (match A.Solution.check p sol with
        | Ok () -> `Sat
        | Error e -> Alcotest.failf "case %d: unbudgeted model broken: %s" case e)
      | A.Engine.R_unsat -> `Unsat
      | A.Engine.R_unknown _ -> `Unknown
    in
    (* Engine under a tight budget. *)
    let options =
      { A.Engine.default_options with A.Engine.budget = tight_budget st }
    in
    (match A.Engine.solve ~options p with
    | result, stats ->
      (match result with
      | A.Engine.R_sat sol ->
        (match A.Solution.check p sol with
        | Ok () -> ()
        | Error e -> Alcotest.failf "case %d: budgeted model broken: %s" case e)
      | A.Engine.R_unknown _ ->
        (* An unknown under pressure must be attributable: either the
           budget tripped or the engine was already incomplete. *)
        ignore stats.A.Engine.budget_exhausted
      | A.Engine.R_unsat -> ());
      no_flip ~case ~what:"engine" reference (verdict_tag result)
    | exception e ->
      Alcotest.failf "case %d: engine escaped exception %s" case
        (Printexc.to_string e));
    (* DPLL(T) baseline under a tight budget. *)
    (match B.Mathsat_like.solve ~budget:(tight_budget st) p with
    | B.Common.B_sat sol ->
      (match A.Solution.check p sol with
      | Ok () -> ()
      | Error e -> Alcotest.failf "case %d: baseline model broken: %s" case e);
      no_flip ~case ~what:"baseline" reference `Sat
    | B.Common.B_unsat -> no_flip ~case ~what:"baseline" reference `Unsat
    | B.Common.B_unknown _ | B.Common.B_out_of_memory -> ()
    | B.Common.B_rejected why ->
      Alcotest.failf "case %d: baseline rejected a linear problem: %s" case why
    | exception e ->
      Alcotest.failf "case %d: baseline escaped exception %s" case
        (Printexc.to_string e))
  done

let test_fuzz_nonlinear_degrades () =
  (* The mixed problem under random tight budgets: any verdict but a
     flip (its unbudgeted verdict is sat), and never an exception. *)
  let st = Random.State.make [| 4242 |] in
  let p = mixed_problem () in
  (match fst (A.Engine.solve p) with
  | A.Engine.R_sat _ -> ()
  | _ -> Alcotest.fail "mixed problem should be sat unbudgeted");
  for case = 1 to 50 do
    let options =
      { A.Engine.default_options with A.Engine.budget = tight_budget st }
    in
    match A.Engine.solve ~options p with
    | A.Engine.R_unsat, _ ->
      Alcotest.failf "case %d: budget flipped sat to unsat" case
    | (A.Engine.R_sat _ | A.Engine.R_unknown _), _ -> ()
    | exception e ->
      Alcotest.failf "case %d: escaped exception %s" case (Printexc.to_string e)
  done

let test_fuzz_all_models_anytime () =
  let st = Random.State.make [| 99 |] in
  for case = 1 to 100 do
    let p = random_linear_problem st in
    let complete =
      match A.Engine.all_models ~limit:50 p with
      | Ok (models, _) -> Some (List.length models)
      | Error _ -> None
    in
    let options =
      {
        A.Engine.default_options with
        A.Engine.budget = Budget.create ~max_steps:(1 + Random.State.int st 300) ();
      }
    in
    match A.Engine.all_models ~options ~limit:50 p with
    | Ok (models, stats) ->
      List.iter
        (fun sol ->
          match A.Solution.check p sol with
          | Ok () -> ()
          | Error e -> Alcotest.failf "case %d: partial model broken: %s" case e)
        models;
      (match (complete, stats.A.Engine.budget_exhausted) with
      | Some n, None ->
        check int_t "uninterrupted enumeration is complete" n
          (List.length models)
      | Some n, Some _ ->
        check bool_t "partial enumeration never over-reports" true
          (List.length models <= n)
      | None, _ -> ())
    | Error _ -> ()
    | exception e ->
      Alcotest.failf "case %d: all_models escaped exception %s" case
        (Printexc.to_string e)
  done

let test_generous_budget_bit_identical () =
  (* A budget that never trips must not change any decision. *)
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 40 do
    let p = random_linear_problem st in
    let r0, s0 = A.Engine.solve p in
    let options =
      {
        A.Engine.default_options with
        A.Engine.budget =
          Budget.create ~deadline_seconds:3600.0 ~max_steps:max_int ();
      }
    in
    let r1, s1 = A.Engine.solve ~options p in
    check bool_t "same verdict" true (verdict_tag r0 = verdict_tag r1);
    check int_t "same bool models" (A.Engine.counter s0 "engine.bool_models")
      (A.Engine.counter s1 "engine.bool_models");
    check int_t "same linear checks"
      (A.Engine.counter s0 "engine.linear_checks")
      (A.Engine.counter s1 "engine.linear_checks");
    check bool_t "no trip recorded" true (s1.A.Engine.budget_exhausted = None)
  done

(* ------------------------------------------------------------------ *)
(* Deterministic fault injection.                                      *)

let engine_points =
  (* points the solve pipeline can reach; the server-side lane point is
     exercised by the chaos suite's panic-barrier test instead *)
  List.filter
    (fun p -> p <> "sat.all_sat" && p <> "server.lane")
    Faults.known

let with_faults f =
  Fun.protect ~finally:Faults.disarm_all f

let solve_span_closed tel =
  (* Aggregates are recorded when a span closes; a "solve" aggregate with
     one call proves the top-level span survived the injected fault. *)
  match List.assoc_opt "solve" (Telemetry.span_aggregates tel) with
  | Some agg -> agg.Telemetry.agg_calls = 1
  | None -> false

let test_fault_trip_every_point () =
  let p = mixed_problem () in
  List.iter
    (fun point ->
      with_faults (fun () ->
          Faults.arm ~point (Faults.Trip Err.Timeout);
          let tel = Telemetry.create () in
          let options =
            {
              A.Engine.default_options with
              A.Engine.budget = Budget.create ();
              telemetry = tel;
            }
          in
          match A.Engine.solve ~options p with
          | exception e ->
            Alcotest.failf "%s: escaped exception %s" point
              (Printexc.to_string e)
          | result, stats ->
            check bool_t (point ^ " fired") true (Faults.hits point >= 1);
            (match result with
            | A.Engine.R_unknown _ -> ()
            | _ -> Alcotest.failf "%s: expected unknown after trip" point);
            (match stats.A.Engine.budget_exhausted with
            | Some Err.Timeout -> ()
            | _ ->
              Alcotest.failf "%s: trip reason not mirrored in stats" point);
            check bool_t (point ^ " span closed") true (solve_span_closed tel)))
    engine_points

let test_fault_raise_every_point () =
  let p = mixed_problem () in
  List.iter
    (fun point ->
      with_faults (fun () ->
          Faults.arm ~point Faults.Raise;
          let tel = Telemetry.create () in
          let options =
            {
              A.Engine.default_options with
              A.Engine.budget = Budget.create ();
              telemetry = tel;
            }
          in
          match A.Engine.solve ~options p with
          | exception e ->
            Alcotest.failf "%s: injected crash escaped the engine: %s" point
              (Printexc.to_string e)
          | result, stats ->
            check bool_t (point ^ " fired") true (Faults.hits point >= 1);
            (match result with
            | A.Engine.R_unknown _ -> ()
            | _ -> Alcotest.failf "%s: expected unknown after crash" point);
            (match stats.A.Engine.budget_exhausted with
            | Some (Err.Internal _) -> ()
            | _ ->
              Alcotest.failf
                "%s: contained crash should surface as Internal" point);
            check bool_t (point ^ " span closed") true (solve_span_closed tel)))
    engine_points

let test_fault_all_sat () =
  (* The enumeration entry point is not under the engine boundary; its
     own boundary converts a trip into a typed Error. *)
  with_faults (fun () ->
      Faults.arm ~point:"sat.all_sat" (Faults.Trip Err.Cancelled);
      match
        AS.enumerate ~budget:(Budget.create ()) ~num_vars:3 [ [ T.pos 0 ] ]
      with
      | Error Err.Cancelled -> ()
      | Error _ -> Alcotest.fail "wrong typed reason"
      | Ok _ -> Alcotest.fail "armed trip did not fire"
      | exception e ->
        Alcotest.failf "all_sat escaped exception %s" (Printexc.to_string e));
  (* An injected crash, by contract, escapes library boundaries and is
     only contained by Budget.guard at the engine; assert the harness
     actually raises so that contract stays honest. *)
  with_faults (fun () ->
      Faults.arm ~point:"sat.all_sat" Faults.Raise;
      match
        AS.enumerate ~budget:(Budget.create ()) ~num_vars:3 [ [ T.pos 0 ] ]
      with
      | exception Faults.Injected "sat.all_sat" -> ()
      | exception e ->
        Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "armed crash did not fire")

let test_fault_unknown_point_rejected () =
  match Faults.arm ~point:"no.such.point" (Faults.Trip Err.Timeout) with
  | () ->
    Faults.disarm_all ();
    Alcotest.fail "unknown point accepted"
  | exception Invalid_argument _ -> Faults.disarm_all ()

let suite =
  [
    ("budget: unlimited is free", `Quick, test_unlimited_is_free);
    ("budget: step limit", `Quick, test_step_budget);
    ("budget: deadline", `Quick, test_deadline);
    ("budget: memory limit", `Quick, test_memory_budget);
    ("budget: cancellation", `Quick, test_cancellation);
    ("budget: first trip wins", `Quick, test_first_trip_wins);
    ("budget: guard", `Quick, test_guard);
    ("budget: child sees parent cancel", `Quick, test_budget_child_parent_cancel);
    ("budget: child trip isolated", `Quick, test_budget_child_isolated);
    ("budget: child deadline clipped", `Quick, test_budget_child_deadline_clipped);
    ("error rendering", `Quick, test_error_rendering);
    ("fuzz: budgets never flip answers", `Quick, test_fuzz_never_flips);
    ("fuzz: nonlinear degradation", `Quick, test_fuzz_nonlinear_degrades);
    ("fuzz: all-models anytime", `Quick, test_fuzz_all_models_anytime);
    ("generous budget is bit-identical", `Quick, test_generous_budget_bit_identical);
    ("faults: trip at every point", `Quick, test_fault_trip_every_point);
    ("faults: crash at every point", `Quick, test_fault_raise_every_point);
    ("faults: all-sat boundary", `Quick, test_fault_all_sat);
    ("faults: unknown point rejected", `Quick, test_fault_unknown_point_rejected);
  ]
