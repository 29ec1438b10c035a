(* Work pins: the Boolean models checked, branch-and-prune nodes, SAT
   decisions, propagations and conflicts and LP pivots of three paper
   instances, each solved once with the registry its table uses, and on
   FISCHER6 the LP session's bounds asserted, retracted and reused. Every
   one of these counters is deterministic, so a change in the order the
   engine enumerates or checks Boolean models, or in the order CDCL
   picks its decisions, fails here as a changed number instead of
   passing silently; a change meant to move the enumeration updates the
   pins with it. *)

module A = Absolver_core
module BP = Absolver_nlp.Branch_prune
module F = Absolver_smtlib.Fischer
module P = Absolver_encodings.Puzzles
module S = Absolver_encodings.Sudoku
module Q = Absolver_numeric.Rational

(* Table 1 solves steering with a node cap of 600 per branch-and-prune
   call. *)
let steering_registry =
  {
    A.Registry.default with
    A.Registry.nonlinear =
      [
        A.Registry.branch_prune_solver
          ~config:
            { BP.default_config with BP.max_nodes = 600; samples_per_node = 2; root_samples = 2048 }
          ();
      ];
  }

let pinned =
  [
    "engine.bool_models";
    "nlp.nodes";
    "sat.decisions";
    "sat.propagations";
    "sat.conflicts";
    "lp.pivots";
  ]

(* The warm LP session's bound moves between consecutive checks: a
   change in the order a model's atoms reach the session, or in which
   bounds it keeps, fails here. *)
let session_pinned = [ "lp.inc.asserted"; "lp.inc.retracted"; "lp.inc.reused" ]

let pin ?registry ?(session = []) problem expected () =
  let _, stats = A.Engine.solve ?registry (problem ()) in
  List.iter2
    (fun name n -> Alcotest.(check int) name n (A.Engine.counter stats name))
    (pinned @ if session = [] then [] else session_pinned)
    (expected @ session)

let fischer6 () =
  match F.problem ~rounds:6 ~property:(F.Cs_within (Q.of_int 2)) ~n:6 () with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let puzzle () = S.absolver_problem (snd (List.hd P.all))

module AS = Absolver_sat.All_sat
module T = Absolver_sat.Types

(* Allocation guard: minor words per propagation over CDCL's searches
   for the first 100 models of the FISCHER6 CNF, each blocked on the
   problem's projection. The watch scan and the propagation loop
   allocate nothing, so what remains is conflict analysis, learnt and
   blocking clauses, well under a word per propagation; a closure or a
   boxed value in the scan costs several words per visit. *)
let test_alloc_guard () =
  let p = fischer6 () in
  let num_vars = A.Ab_problem.num_bool_vars p in
  let projection =
    match A.Ab_problem.projection p with Some vs -> vs | None -> List.init num_vars Fun.id
  in
  let t = AS.create ~phase:false AS.Incremental (AS.load ~num_vars (A.Ab_problem.clauses p)) in
  let words = ref 0.0 and props = ref 0 in
  let rec loop k =
    let w0 = Gc.minor_words () in
    let out = AS.next t in
    words := !words +. (Gc.minor_words () -. w0);
    props := !props + (AS.work t).T.propagations;
    if out = T.Sat && k < 100 then begin
      AS.block t (AS.blocking ~projection (AS.model t));
      loop (k + 1)
    end
  in
  loop 1;
  let per = !words /. float_of_int !props in
  if per >= 0.5 then
    Alcotest.failf "%.0f minor words over %d propagations: %.2f per propagation" !words !props per

let suite =
  [
    Alcotest.test_case "car_steering (Table 1)" `Slow
      (pin ~registry:steering_registry Absolver_model.Steering.problem
         [ 10; 4207; 69; 93; 1; 5 ]);
    Alcotest.test_case "FISCHER6-1-fair (Table 2)" `Quick
      (pin fischer6 [ 110; 0; 10552; 216683; 150; 112 ] ~session:[ 486; 184; 23877 ]);
    Alcotest.test_case "first Table 3 puzzle" `Quick (pin puzzle [ 1; 0; 7; 348; 0; 0 ]);
    Alcotest.test_case "FISCHER6 searches allocate under half a word per propagation" `Quick
      test_alloc_guard;
  ]
