(* Work pins: the Boolean models checked, branch-and-prune nodes, SAT
   decisions, propagations and conflicts and LP pivots of three paper
   instances, each solved once with the registry its table uses. Every
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

let pin ?registry problem expected () =
  let _, stats = A.Engine.solve ?registry (problem ()) in
  List.iter2
    (fun name n -> Alcotest.(check int) name n (A.Engine.counter stats name))
    pinned expected

let fischer6 () =
  match F.problem ~rounds:6 ~property:(F.Cs_within (Q.of_int 2)) ~n:6 () with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let puzzle () = S.absolver_problem (snd (List.hd P.all))

let suite =
  [
    Alcotest.test_case "car_steering (Table 1)" `Slow
      (pin ~registry:steering_registry Absolver_model.Steering.problem
         [ 10; 4207; 69; 93; 1; 5 ]);
    Alcotest.test_case "FISCHER6-1-fair (Table 2)" `Quick
      (pin fischer6 [ 113; 0; 11712; 366467; 150; 122 ]);
    Alcotest.test_case "first Table 3 puzzle" `Quick (pin puzzle [ 1; 0; 7; 348; 0; 0 ]);
  ]
