(* Tests for the SAT layer: literals, DIMACS, CDCL, all-SAT, Tseitin. *)

module T = Absolver_sat.Types
module C = Absolver_sat.Cdcl
module D = Absolver_sat.Dimacs
module AS = Absolver_sat.All_sat
module TS = Absolver_sat.Tseitin
module Vec = Absolver_sat.Vec

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Literals.                                                           *)

let test_literals () =
  check int_t "var_of pos" 3 (T.var_of (T.pos 3));
  check int_t "var_of neg" 3 (T.var_of (T.neg_of_var 3));
  check bool_t "is_pos" true (T.is_pos (T.pos 0));
  check bool_t "negate flips" true (T.negate (T.pos 5) = T.neg_of_var 5);
  check int_t "dimacs pos" 4 (T.to_dimacs (T.pos 3));
  check int_t "dimacs neg" (-4) (T.to_dimacs (T.neg_of_var 3));
  check int_t "of_dimacs roundtrip" (T.pos 7) (T.of_dimacs 8);
  Alcotest.check_raises "of_dimacs zero"
    (Invalid_argument "Types.of_dimacs: zero literal") (fun () ->
      ignore (T.of_dimacs 0))

(* ------------------------------------------------------------------ *)
(* Vec.                                                                *)

let test_vec () =
  let v = Vec.create ~dummy:0 ~capacity:4 () in
  for i = 1 to 100 do
    Vec.push v i
  done;
  check int_t "size" 100 (Vec.size v);
  check int_t "pop" 100 (Vec.pop v);
  check int_t "pop" 99 (Vec.pop v);
  check int_t "size after pops" 98 (Vec.size v);
  check int_t "fold" (98 * 99 / 2) (Vec.fold ( + ) 0 v);
  check (Alcotest.list int_t) "fold order" [ 98; 97; 96 ]
    (List.filteri (fun i _ -> i < 3) (Vec.fold (fun acc x -> x :: acc) [] v))

(* ------------------------------------------------------------------ *)
(* CDCL basics.                                                        *)

let solve_clauses n clauses =
  let s = C.create () in
  C.ensure_vars s n;
  List.iter (C.add_clause s) clauses;
  (C.solve s, s)

let test_cdcl_trivial_sat () =
  let r, s = solve_clauses 1 [ [ T.pos 0 ] ] in
  check bool_t "sat" true (r = T.Sat);
  check bool_t "model" true (C.value s 0 = T.V_true)

let test_cdcl_trivial_unsat () =
  let r, _ = solve_clauses 1 [ [ T.pos 0 ]; [ T.neg_of_var 0 ] ] in
  check bool_t "unsat" true (r = T.Unsat)

let test_cdcl_empty_clause () =
  let r, s = solve_clauses 1 [ [] ] in
  check bool_t "unsat" true (r = T.Unsat);
  check bool_t "is_unsat" true (C.is_unsat s)

let test_cdcl_no_clauses () =
  let r, _ = solve_clauses 3 [] in
  check bool_t "sat" true (r = T.Sat)

let test_cdcl_tautology_dropped () =
  let r, _ = solve_clauses 1 [ [ T.pos 0; T.neg_of_var 0 ] ] in
  check bool_t "sat" true (r = T.Sat)

let test_cdcl_duplicate_literals () =
  let r, s = solve_clauses 1 [ [ T.pos 0; T.pos 0; T.pos 0 ] ] in
  check bool_t "sat" true (r = T.Sat);
  check bool_t "forced" true (C.value s 0 = T.V_true)

let test_cdcl_propagation_chain () =
  (* x0 and a chain of implications forcing x9. *)
  let clauses =
    [ T.pos 0 ]
    :: List.init 9 (fun i -> [ T.neg_of_var i; T.pos (i + 1) ])
  in
  let r, s = solve_clauses 10 clauses in
  check bool_t "sat" true (r = T.Sat);
  for i = 0 to 9 do
    check bool_t (Printf.sprintf "x%d forced" i) true (C.value s i = T.V_true)
  done

let test_cdcl_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic small UNSAT requiring learning. *)
  let v p h = (p * 2) + h in
  let clauses =
    List.init 3 (fun p -> [ T.pos (v p 0); T.pos (v p 1) ])
    @ List.concat_map
        (fun h ->
          [
            [ T.neg_of_var (v 0 h); T.neg_of_var (v 1 h) ];
            [ T.neg_of_var (v 0 h); T.neg_of_var (v 2 h) ];
            [ T.neg_of_var (v 1 h); T.neg_of_var (v 2 h) ];
          ])
        [ 0; 1 ]
  in
  let r, _ = solve_clauses 6 clauses in
  check bool_t "php(3,2) unsat" true (r = T.Unsat)

let test_cdcl_assumptions () =
  let s = C.create () in
  C.ensure_vars s 2;
  C.add_clause s [ T.pos 0; T.pos 1 ];
  check bool_t "sat under ~x0" true
    (C.solve ~assumptions:[ T.neg_of_var 0 ] s = T.Sat);
  check bool_t "x1 forced" true (C.value s 1 = T.V_true);
  check bool_t "unsat under both neg" true
    (C.solve ~assumptions:[ T.neg_of_var 0; T.neg_of_var 1 ] s = T.Unsat);
  check bool_t "still sat without assumptions" true (C.solve s = T.Sat);
  check bool_t "not globally unsat" false (C.is_unsat s)

let test_cdcl_incremental () =
  let s = C.create () in
  C.ensure_vars s 3;
  C.add_clause s [ T.pos 0; T.pos 1 ];
  check bool_t "sat 1" true (C.solve s = T.Sat);
  C.add_clause s [ T.neg_of_var 0 ];
  check bool_t "sat 2" true (C.solve s = T.Sat);
  check bool_t "x1 now forced" true (C.value s 1 = T.V_true);
  C.add_clause s [ T.neg_of_var 1 ];
  check bool_t "unsat 3" true (C.solve s = T.Unsat)

let test_cdcl_model_valid_random () =
  (* Deterministic pseudo-random 3-SAT near threshold; verify models. *)
  let st = Random.State.make [| 1234 |] in
  for _ = 1 to 200 do
    let n = 5 + Random.State.int st 15 in
    let m = int_of_float (4.0 *. float_of_int n) in
    let clauses =
      List.init m (fun _ ->
          List.init 3 (fun _ ->
              let v = Random.State.int st n in
              if Random.State.bool st then T.pos v else T.neg_of_var v))
    in
    let r, s = solve_clauses n clauses in
    match r with
    | T.Sat ->
      let ok =
        List.for_all
          (List.exists (fun l ->
               match C.value s (T.var_of l) with
               | T.V_true -> T.is_pos l
               | T.V_false -> not (T.is_pos l)
               | T.V_undef -> false))
          clauses
      in
      check bool_t "model satisfies" true ok
    | T.Unsat | T.Unknown -> ()
  done

(* ------------------------------------------------------------------ *)
(* DIMACS.                                                             *)

let test_dimacs_parse () =
  let text = "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  match D.parse_string text with
  | Error e -> Alcotest.fail e
  | Ok cnf ->
    check int_t "vars" 3 cnf.D.num_vars;
    check int_t "clauses" 2 (List.length cnf.D.clauses);
    check bool_t "comment" true (cnf.D.comments = [ "a comment" ]);
    check bool_t "first clause" true
      (List.hd cnf.D.clauses = [ T.pos 0; T.neg_of_var 1 ])

let test_dimacs_roundtrip () =
  let text = "p cnf 4 3\n1 2 0\n-3 4 0\n-1 -4 0\n" in
  match D.parse_string text with
  | Error e -> Alcotest.fail e
  | Ok cnf -> (
    match D.parse_string (D.to_string cnf) with
    | Error e -> Alcotest.fail e
    | Ok cnf2 ->
      check bool_t "roundtrip" true (cnf.D.clauses = cnf2.D.clauses))

let test_dimacs_errors () =
  (match D.parse_string "p cnf x y\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad problem line");
  match D.parse_string "p cnf 2 1\n1 foo 0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad literal"

(* ------------------------------------------------------------------ *)
(* All-SAT.                                                            *)

let count_brute n clauses =
  let total = ref 0 in
  for m = 0 to (1 lsl n) - 1 do
    if
      List.for_all
        (List.exists (fun l ->
             let v = T.var_of l in
             (m lsr v) land 1 = if T.is_pos l then 1 else 0))
        clauses
    then incr total
  done;
  !total

let test_allsat_counts () =
  let cases =
    [
      (2, [ [ T.pos 0; T.pos 1 ] ]);
      (3, [ [ T.pos 0 ]; [ T.neg_of_var 1; T.pos 2 ] ]);
      (4, []);
      (2, [ [ T.pos 0 ]; [ T.neg_of_var 0 ] ]);
    ]
  in
  List.iter
    (fun (n, clauses) ->
      match AS.enumerate ~num_vars:n clauses with
      | Error e -> Alcotest.fail (Absolver_resource.Absolver_error.to_string e)
      | Ok models ->
        check int_t "model count" (count_brute n clauses) (List.length models))
    cases

let test_allsat_projection () =
  (* Projecting onto x0: the two x1 values collapse. *)
  let clauses = [ [ T.pos 0; T.pos 1 ] ] in
  match AS.enumerate ~projection:[ 0 ] ~num_vars:2 clauses with
  | Error e -> Alcotest.fail (Absolver_resource.Absolver_error.to_string e)
  | Ok models -> check int_t "projected count" 2 (List.length models)

let test_allsat_limit () =
  match AS.enumerate ~limit:3 ~num_vars:4 [] with
  | Error e -> Alcotest.fail (Absolver_resource.Absolver_error.to_string e)
  | Ok models -> check int_t "limit respected" 3 (List.length models)

let test_allsat_strategies_agree () =
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 50 do
    let n = 3 + Random.State.int st 5 in
    let clauses =
      List.init (Random.State.int st 8) (fun _ ->
          List.init (1 + Random.State.int st 3) (fun _ ->
              let v = Random.State.int st n in
              if Random.State.bool st then T.pos v else T.neg_of_var v))
    in
    let models strategy =
      match AS.enumerate ~strategy ~num_vars:n clauses with
      | Ok m -> List.sort compare (List.map Array.to_list m)
      | Error e -> Alcotest.fail (Absolver_resource.Absolver_error.to_string e)
    in
    let a = models AS.Incremental in
    check
      Alcotest.(list (list bool))
      "strategies find the same models" a (models AS.Restarting);
    check int_t "brute agrees" (count_brute n clauses) (List.length a)
  done

(* ------------------------------------------------------------------ *)
(* Tseitin.                                                            *)

let models_of_formula num_vars f =
  (* Count assignments of the original atoms satisfying f, via All_sat
     projection onto the atom variables. *)
  let clauses, total = TS.assert_cnf ~num_vars f in
  match AS.enumerate ~projection:(List.init num_vars Fun.id) ~num_vars:total clauses with
  | Ok models -> List.length models
  | Error e -> Alcotest.fail (Absolver_resource.Absolver_error.to_string e)

let test_tseitin_equisatisfiable () =
  let a = TS.atom 0 and b = TS.atom 1 and c = TS.atom 2 in
  check int_t "and" 1 (models_of_formula 3 (TS.and_ [ a; b; c ]));
  check int_t "or" 7 (models_of_formula 3 (TS.or_ [ a; b; c ]));
  check int_t "xor" 4 (models_of_formula 3 (TS.xor a b));
  check int_t "iff" 4 (models_of_formula 3 (TS.iff a b));
  check int_t "implies" 6 (models_of_formula 3 (TS.implies a b));
  check int_t "const true" 8 (models_of_formula 3 TS.True);
  check int_t "const false" 0 (models_of_formula 3 TS.False)

let test_tseitin_matches_eval () =
  let st = Random.State.make [| 7 |] in
  let rec random_formula depth =
    if depth = 0 then TS.atom (Random.State.int st 4)
    else
      match Random.State.int st 5 with
      | 0 -> TS.not_ (random_formula (depth - 1))
      | 1 -> TS.and_ [ random_formula (depth - 1); random_formula (depth - 1) ]
      | 2 -> TS.or_ [ random_formula (depth - 1); random_formula (depth - 1) ]
      | 3 -> TS.iff (random_formula (depth - 1)) (random_formula (depth - 1))
      | _ -> TS.xor (random_formula (depth - 1)) (random_formula (depth - 1))
  in
  for _ = 1 to 100 do
    let f = random_formula 4 in
    let expected = ref 0 in
    for m = 0 to 15 do
      if TS.eval (fun v -> (m lsr v) land 1 = 1) f then incr expected
    done;
    check int_t "tseitin model count = truth table" !expected
      (models_of_formula 4 f)
  done

let test_tseitin_shared_dag () =
  (* A deep shared chain must stay linear (regression for the exponential
     blowup found during development). *)
  let f = ref (TS.or_ [ TS.atom 0; TS.not_ (TS.atom 0) ]) in
  for _ = 1 to 500 do
    f := TS.and_ [ !f; !f ]
  done;
  let clauses, _ = TS.assert_cnf ~num_vars:1 !f in
  check bool_t "linear size" true (List.length clauses < 5000)

let suite =
  [
    ("literal encoding", `Quick, test_literals);
    ("vec operations", `Quick, test_vec);
    ("cdcl trivially sat", `Quick, test_cdcl_trivial_sat);
    ("cdcl trivially unsat", `Quick, test_cdcl_trivial_unsat);
    ("cdcl empty clause", `Quick, test_cdcl_empty_clause);
    ("cdcl no clauses", `Quick, test_cdcl_no_clauses);
    ("cdcl tautology", `Quick, test_cdcl_tautology_dropped);
    ("cdcl duplicate literals", `Quick, test_cdcl_duplicate_literals);
    ("cdcl propagation chain", `Quick, test_cdcl_propagation_chain);
    ("cdcl pigeonhole", `Quick, test_cdcl_pigeonhole_3_2);
    ("cdcl assumptions", `Quick, test_cdcl_assumptions);
    ("cdcl incremental", `Quick, test_cdcl_incremental);
    ("cdcl random 3-sat models", `Quick, test_cdcl_model_valid_random);
    ("dimacs parse", `Quick, test_dimacs_parse);
    ("dimacs roundtrip", `Quick, test_dimacs_roundtrip);
    ("dimacs errors", `Quick, test_dimacs_errors);
    ("all-sat counts", `Quick, test_allsat_counts);
    ("all-sat projection", `Quick, test_allsat_projection);
    ("all-sat limit", `Quick, test_allsat_limit);
    ("all-sat strategies agree", `Quick, test_allsat_strategies_agree);
    ("tseitin equisatisfiable", `Quick, test_tseitin_equisatisfiable);
    ("tseitin matches truth table", `Quick, test_tseitin_matches_eval);
    ("tseitin shared dag linear", `Quick, test_tseitin_shared_dag);
  ]
