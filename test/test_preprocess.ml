(* Tests for the presolve subsystem: the Absolver_preprocess passes, the
   Preprocess driver, and an equivalence suite asserting that the engine
   returns identical results with the presolve layer on and off. *)

module A = Absolver_core
module PP = Absolver_preprocess
module E = Absolver_nlp.Expr
module Box = Absolver_nlp.Box
module I = Absolver_numeric.Interval
module L = Absolver_lp.Linexpr
module T = Absolver_sat.Types
module Q = Absolver_numeric.Rational
module F = Absolver_smtlib.Fischer
module S = Absolver_encodings.Sudoku
module P = Absolver_encodings.Puzzles
module M = Absolver_model

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let parse text =
  match A.Dimacs_ext.parse_string text with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %s" e

let simplified = function
  | PP.Sat_simplify.Unsat -> Alcotest.fail "unexpected root unsat"
  | PP.Sat_simplify.Simplified s -> s

(* ------------------------------------------------------------------ *)
(* Sat_simplify.                                                       *)

let test_sat_unit_chain () =
  let s =
    simplified
      (PP.Sat_simplify.simplify ~nvars:3
         [
           [ T.pos 0 ];
           [ T.neg_of_var 0; T.pos 1 ];
           [ T.neg_of_var 1; T.pos 2 ];
         ])
  in
  check int_t "three vars fixed" 3 (List.length s.PP.Sat_simplify.fixed);
  List.iter
    (fun (_, b) -> check bool_t "all true" true b)
    s.PP.Sat_simplify.fixed;
  (* The output CNF is the three units. *)
  check int_t "unit clauses" 3 (List.length s.PP.Sat_simplify.clauses);
  List.iter
    (fun c -> check int_t "unit" 1 (List.length c))
    s.PP.Sat_simplify.clauses

let test_sat_failed_literal () =
  (* Assuming a propagates b, then c, then a conflict with (-a or -c);
     no clause is a unit, so unit propagation fixes nothing — only
     probing fixes a to false. *)
  let s =
    simplified
      (PP.Sat_simplify.simplify ~nvars:3
         [
           [ T.neg_of_var 0; T.pos 1 ];
           [ T.neg_of_var 1; T.pos 2 ];
           [ T.neg_of_var 0; T.neg_of_var 2 ];
         ])
  in
  check bool_t "a fixed false" true
    (List.mem (0, false) s.PP.Sat_simplify.fixed);
  check bool_t "a failed probe counted" true
    (s.PP.Sat_simplify.stats.PP.Sat_simplify.failed_literals >= 1)

let test_sat_root_unsat () =
  match
    PP.Sat_simplify.simplify ~nvars:1 [ [ T.pos 0 ]; [ T.neg_of_var 0 ] ]
  with
  | PP.Sat_simplify.Unsat -> ()
  | PP.Sat_simplify.Simplified _ -> Alcotest.fail "contradictory units accepted"

(* A deterministic 48-bit LCG so the random corpora are reproducible
   across OCaml versions; only its high bits are used, since the low bits
   of a power-of-two LCG have short periods. *)
let lcg seed =
  let state = ref seed in
  fun m ->
    state := ((0x5DEECE66D * !state) + 0xB) land 0xFFFF_FFFF_FFFF;
    (!state lsr 17) mod m

(* A random CNF over [nvars] variables in the shapes the simplifier must
   normalise: duplicate literals, tautologies, units and (in [empty_every]
   of the CNFs on average) an empty clause. Returns the variable count
   and the clauses. *)
let random_cnf rand ~max_vars ~empty_every =
  let nvars = 2 + rand (max_vars - 1) in
  let lit_near base =
    let v = (base + rand 5) mod nvars in
    if rand 2 = 0 then T.pos v else T.neg_of_var v
  in
  let lit () = lit_near (rand nvars) in
  (* Literals of one clause come from a window of five variables, so
     clauses share variables often enough for probes to propagate. *)
  let clause () =
    let base = rand nvars in
    let c = List.init (2 + rand 3) (fun _ -> lit_near base) in
    let c = if rand 6 = 0 then List.hd c :: c else c in
    if rand 10 = 0 then T.negate (List.hd c) :: c else c
  in
  let nclauses = 1 + rand (3 * nvars) in
  let clauses =
    List.init nclauses (fun _ -> if rand 40 = 0 then [ lit () ] else clause ())
  in
  let clauses = if rand empty_every = 0 then clauses @ [ [] ] else clauses in
  (nvars, clauses)

(* ------------------------------------------------------------------ *)
(* Sat_simplify identity: the full result, pinned.                     *)

(* Everything [simplify] returns, as one digest: the clauses in order,
   [fixed] and every stats field. *)
let digest_result r =
  let b = Buffer.create 4096 in
  let add_int n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ' '
  in
  (match r with
  | PP.Sat_simplify.Unsat -> Buffer.add_string b "unsat"
  | PP.Sat_simplify.Simplified s ->
    List.iter
      (fun c ->
        List.iter add_int c;
        Buffer.add_char b ';')
      s.PP.Sat_simplify.clauses;
    let add_assignment (v, value) =
      add_int v;
      Buffer.add_char b (if value then 't' else 'f')
    in
    Buffer.add_char b '|';
    List.iter add_assignment s.PP.Sat_simplify.fixed;
    Buffer.add_char b '|';
    let st = s.PP.Sat_simplify.stats in
    List.iter add_int
      PP.Sat_simplify.
        [
          st.fixed_literals;
          st.removed_clauses;
          st.probes;
          st.failed_literals;
        ]);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The CNF skeleton of a paper problem. *)
let simplify_skeleton p =
  PP.Sat_simplify.simplify
    ~nvars:(A.Ab_problem.num_bool_vars p) (A.Ab_problem.clauses p)

let fischer_table2 n =
  match F.problem ~rounds:6 ~property:(F.Cs_within (Q.of_int 2)) ~n () with
  | Ok p -> p
  | Error e -> Alcotest.failf "fischer: %s" e

let identity_named () =
  List.map
    (fun (name, puzzle) ->
      (name, digest_result (simplify_skeleton (S.absolver_problem puzzle))))
    P.all
  @ List.init 6 (fun i ->
        ( Printf.sprintf "FISCHER%d" (i + 1),
          digest_result (simplify_skeleton (fischer_table2 (i + 1))) ))
  @ [ ("steering", digest_result (simplify_skeleton (M.Steering.problem ()))) ]

(* 300 seeded random CNFs. *)
let identity_random () =
  let rand = lcg 20070601 in
  List.init 300 (fun _ ->
      let nvars, clauses = random_cnf rand ~max_vars:24 ~empty_every:15 in
      (* [simplify] must also cope with an undercounted [nvars]. *)
      let declared = if rand 4 = 0 then nvars - 1 else nvars in
      String.sub
        (digest_result (PP.Sat_simplify.simplify ~nvars:declared clauses))
        0 8)

(* Digests of the simplifier's results (unit propagation, one probing
   pass). They equal those of the earlier simplifier with its subsumption
   pass skipped; the simplifier must reproduce them bit for bit. *)
let identity_named_pins =
  [
    ("2006_05_23_hard", "6765e7c23ef924cb137fed9be9de5a4d");
    ("2006_05_24_hard", "1e735271cf453588bb232e74025554ba");
    ("2006_05_25_hard", "08a1216a36464f7effb5e5909ba6322a");
    ("2006_05_26_hard", "462b4bb24ca6449c5d5e628178945352");
    ("2006_05_27_hard", "8a4f742419933dc55384661356de42fc");
    ("2006_05_28_hard", "e422f53293859b699f37420ec8061488");
    ("2006_05_29_easy", "a24b6a21a4247e39e28b46e238dd080d");
    ("2006_05_29_hard", "891919a294c53031d6ad6168962f6777");
    ("2006_05_30_easy", "a4a6aa6412981e34386f498d1320975f");
    ("2006_05_30_hard", "11fed13d7595db06acaf573ae94e9fa1");
    ("FISCHER1", "28b25e8910534783216d5a1c2610e1cc");
    ("FISCHER2", "45440d6b4f18e480b06537252368da33");
    ("FISCHER3", "3b136193bc1da9ee69e4391219568cfe");
    ("FISCHER4", "70402aef6942b75264668e9ab80cbd9d");
    ("FISCHER5", "8da4e90f0f3986fb4e1f8a1c5026ce22");
    ("FISCHER6", "ea8f73c98021b47a18b981c1cddb187f");
    ("steering", "3f2a33613b26230d49aa074d821fdb77");
  ]

let identity_random_pins =
  [|
    "33fa15b5"; "ab76ca46"; "0fd4494f"; "d5e72763"; "6393ff1c"; "ab76ca46";
    "ab76ca46"; "d7ff02b0"; "ab04d342"; "c1432fac"; "91ac1f78"; "d34f8062";
    "b2c0e561"; "ab76ca46"; "eff3cfcd"; "bbb586f7"; "5bea1b94"; "4792a2c3";
    "5bae6bb0"; "4645d928"; "915dac0d"; "7bfb8011"; "c82778c1"; "46ea7f59";
    "ab76ca46"; "82bc44d6"; "0c2f9be1"; "c71bb7ad"; "ab76ca46"; "f128650e";
    "b614a334"; "c7b324ec"; "460d1c12"; "db7e7719"; "2032ef32"; "de9629a0";
    "ab76ca46"; "d278ad9b"; "8c06c653"; "e73c0fde"; "58520534"; "a9ba3ff8";
    "ead0c29f"; "13faa67c"; "ab76ca46"; "ab76ca46"; "c42dc442"; "ab76ca46";
    "ab76ca46"; "ab76ca46"; "a49cec35"; "52dab635"; "ab76ca46"; "be332f6e";
    "6b05ea46"; "ce645f38"; "7c476607"; "e3d90dbd"; "08240c71"; "71197a0d";
    "ab76ca46"; "0aeb5f54"; "9a944f3c"; "2d8a0744"; "0487c320"; "ab76ca46";
    "786d3796"; "ab76ca46"; "071df1ec"; "2bcbc5ce"; "cf1c5c5b"; "ab76ca46";
    "ab76ca46"; "fb8469f5"; "17df5221"; "b51372a5"; "313b1ff0"; "5b9dbd7d";
    "963929fe"; "ab76ca46"; "b07deeff"; "7427ddc2"; "81f040e2"; "eee682c8";
    "ab76ca46"; "ab76ca46"; "899b8db7"; "836da642"; "9c6e3c9e"; "ab76ca46";
    "87dc52ed"; "63872e80"; "52195524"; "ab76ca46"; "506427ed"; "ab76ca46";
    "2ba37929"; "434fb413"; "adbcdc38"; "59a9e755"; "913d6ad9"; "e50a9813";
    "9544d802"; "260abffb"; "c7050d51"; "ab76ca46"; "97200e5f"; "27b4a774";
    "b19c64fc"; "28d3f6b0"; "36245823"; "c9968b43"; "ab76ca46"; "ab76ca46";
    "5a5192be"; "04d93465"; "5df7dae9"; "31f2b828"; "ce9316c7"; "e0debd7e";
    "15f26942"; "df8982d8"; "16487719"; "474660cc"; "59aac96c"; "65826031";
    "5acad77c"; "3a9c27d7"; "9eff4f1c"; "131e6fbf"; "54867c9c"; "542e17bf";
    "232a5293"; "f2932e0f"; "4145e1c7"; "03e32a08"; "0abc6e08"; "d1b186db";
    "df27e92d"; "8e57766f"; "ab76ca46"; "e59a1e00"; "5f480b70"; "ab76ca46";
    "f81b446d"; "395dd1b7"; "d889e5d4"; "ab76ca46"; "e86723cc"; "8847f81d";
    "2d3c4dae"; "c0566dd2"; "e212d08e"; "5c52e736"; "0880c046"; "46a8c789";
    "057bd43c"; "3f99ef2d"; "7e191169"; "108e7cb9"; "67c61e64"; "a3d23009";
    "533b2c89"; "b30dcce1"; "37573a2a"; "c7de4559"; "3dd95e52"; "edd1f1f8";
    "ab76ca46"; "2a70923b"; "aeaf7d34"; "5d19980a"; "ab76ca46"; "8df33c79";
    "a529310c"; "81fe9616"; "5ed8a223"; "d5e6b358"; "c2c24d1e"; "9c405e33";
    "364e2cce"; "245af9ea"; "bec2b674"; "26082702"; "1ae86d54"; "ab76ca46";
    "d4fc4dfe"; "aab93e00"; "9d01b956"; "923748b1"; "b7894b0e"; "2643c362";
    "8b2a6fd3"; "5ad8db6a"; "ab76ca46"; "0a2f0dc5"; "fc0ceb4a"; "a6533554";
    "327e8ac9"; "80f53af6"; "b6bb204e"; "8db21d98"; "f4238b1a"; "98076f0b";
    "e9c701a4"; "a4fbf2e5"; "c5da5c5f"; "8ec4685c"; "7f1bc1f9"; "d567107e";
    "341b4522"; "09de0818"; "ab76ca46"; "7f41a849"; "be024b98"; "ab97b0be";
    "7de90893"; "ab76ca46"; "fc582214"; "4eefd01a"; "ab76ca46"; "b62cd1c0";
    "716b4f84"; "ab76ca46"; "7ae7c2f2"; "22b44f7e"; "a1520bb6"; "7194fb70";
    "3aeae85c"; "2e08793c"; "46ec0906"; "7e5ae852"; "28f974f0"; "c9cf70ae";
    "ffff9a42"; "5ea71f4c"; "ab76ca46"; "425528af"; "5ed8a223"; "ab76ca46";
    "a99adc3b"; "9864b5a9"; "ada0ef0e"; "fc04bec9"; "e5851a32"; "26d53117";
    "39b6a44a"; "4e303a28"; "ab76ca46"; "eeeefeb0"; "920705aa"; "e1731e58";
    "bea54cc6"; "1c35d658"; "745d974b"; "f767903c"; "ab76ca46"; "ab76ca46";
    "ab76ca46"; "ca04cffb"; "b304eb9f"; "6571cc04"; "112eefc7"; "05f2a092";
    "973f1af5"; "09c2f141"; "01fd564e"; "1b66aa61"; "d97c0e7f"; "ab76ca46";
    "efbbb196"; "ab76ca46"; "b3824a12"; "3f14a7f0"; "dd8e4dbd"; "403c6b37";
    "ab76ca46"; "70fefe28"; "ab76ca46"; "150e34a2"; "53fb389e"; "2c72b234";
    "02b55884"; "b2d8c7bd"; "437bf5b8"; "092a3d3b"; "ab76ca46"; "6981e414";
    "e50a9813"; "7bc97a6c"; "e8071bb9"; "bc71b842"; "ab76ca46"; "ab76ca46";
    "43b15d7f"; "97e061bc"; "ab76ca46"; "16897f5f"; "29f6a21c"; "b0272136";
  |]

let test_sat_identity_named () =
  List.iter2
    (fun (name, pinned) (name', got) ->
      check string_t "input order" name name';
      check string_t (name ^ ": result digest") pinned got)
    identity_named_pins (identity_named ())

let test_sat_identity_random () =
  List.iteri
    (fun i got ->
      check string_t
        (Printf.sprintf "random CNF %d: result digest" i)
        identity_random_pins.(i) got)
    (identity_random ())

(* ------------------------------------------------------------------ *)
(* Sat_simplify model sets, by brute force.                            *)

let satisfies model clauses =
  List.for_all (List.exists (fun l -> model.(T.var_of l) = T.is_pos l)) clauses

(* Every model of [clauses] over variables [0 .. n - 1]. *)
let all_models n clauses =
  List.filter_map
    (fun bits ->
      let m = Array.init n (fun v -> (bits lsr v) land 1 = 1) in
      if satisfies m clauses then Some m else None)
    (List.init (1 lsl n) Fun.id)

(* The result of [simplify] against the model set of its input:
   - [Unsat] only when the input has no model;
   - every fixed literal holds in every model of the input;
   - a simplified CNF has exactly the models of the input. *)
let check_model_sets name n clauses result =
  let input = all_models n clauses in
  match result with
  | PP.Sat_simplify.Unsat ->
    check int_t (name ^ ": unsat input") 0 (List.length input)
  | PP.Sat_simplify.Simplified s ->
    List.iter
      (fun (v, b) ->
        check bool_t (name ^ ": fixed literal holds in every input model") true
          (List.for_all (fun m -> m.(v) = b) input))
      s.PP.Sat_simplify.fixed;
    let output = all_models n s.PP.Sat_simplify.clauses in
    check
      Alcotest.(list (array bool))
      (name ^ ": same models") input output

(* Seeded CNFs over at most 10 variables, each simplified without a
   budget and with two step budgets that run out during the probing pass
   (one step per variable), one in its first half and one in its second
   half. *)
let test_sat_model_sets () =
  let rand = lcg 1607 in
  let tripped = ref 0 in
  for i = 1 to 200 do
    let n, clauses = random_cnf rand ~max_vars:10 ~empty_every:40 in
    let run budget =
      try PP.Sat_simplify.simplify ?budget ~nvars:n clauses
      with e -> Alcotest.failf "CNF %d: %s escaped" i (Printexc.to_string e)
    in
    check_model_sets (Printf.sprintf "CNF %d" i) n clauses (run None);
    List.iter
      (fun (phase, max_steps) ->
        let budget = Absolver_resource.Budget.create ~max_steps () in
        let result = run (Some budget) in
        if Absolver_resource.Budget.tripped budget <> None then incr tripped;
        check_model_sets
          (Printf.sprintf "CNF %d, budget out %s" i phase)
          n clauses result)
      [
        ("in early probing", rand ((n + 1) / 2));
        ("in late probing", ((n + 1) / 2) + rand (n / 2));
      ]
  done;
  check bool_t "budgets ran out in most runs" true (!tripped > 200)

(* ------------------------------------------------------------------ *)
(* Lp_presolve.                                                        *)

let some_q_t =
  Alcotest.testable
    (fun fmt -> function
      | None -> Format.pp_print_string fmt "_"
      | Some q -> Q.pp fmt q)
    (fun a b ->
      match (a, b) with
      | None, None -> true
      | Some a, Some b -> Q.equal a b
      | _ -> false)

let test_lp_singleton_and_propagation () =
  let b = PP.Lp_presolve.create 2 in
  (* x0 - 5 <= 0 (singleton row), x1 - x0 <= 0 (propagates x1 <= 5). *)
  let rows =
    [
      { L.expr = L.of_list [ (Q.one, 0) ] (Q.of_int (-5)); op = L.Le; tag = 1 };
      {
        L.expr = L.of_list [ (Q.one, 1); (Q.of_int (-1), 0) ] Q.zero;
        op = L.Le;
        tag = 2;
      };
    ]
  in
  (match PP.Lp_presolve.presolve b rows with
  | PP.Lp_presolve.Infeasible_rows _ -> Alcotest.fail "feasible rows refuted"
  | PP.Lp_presolve.Presolved { tightened; _ } ->
    check bool_t "some tightening" true (tightened >= 2));
  check some_q_t "x0 <= 5" (Some (Q.of_int 5)) b.PP.Lp_presolve.hi.(0);
  check some_q_t "x1 <= 5" (Some (Q.of_int 5)) b.PP.Lp_presolve.hi.(1)

let test_lp_infeasible () =
  let b = PP.Lp_presolve.create 1 in
  b.PP.Lp_presolve.lo.(0) <- Some Q.zero;
  b.PP.Lp_presolve.hi.(0) <- Some Q.one;
  (* x0 >= 2 against x0 in [0, 1]. *)
  let row =
    { L.expr = L.of_list [ (Q.one, 0) ] (Q.of_int (-2)); op = L.Ge; tag = 7 }
  in
  check bool_t "status infeasible" true
    (PP.Lp_presolve.status b row = PP.Lp_presolve.Infeasible);
  match PP.Lp_presolve.presolve b [ row ] with
  | PP.Lp_presolve.Infeasible_rows tags ->
    check bool_t "offending tag reported" true (List.mem 7 tags)
  | PP.Lp_presolve.Presolved _ -> Alcotest.fail "infeasible row kept"

let test_lp_redundant () =
  let b = PP.Lp_presolve.create 1 in
  b.PP.Lp_presolve.lo.(0) <- Some Q.zero;
  b.PP.Lp_presolve.hi.(0) <- Some Q.one;
  (* x0 <= 2 always holds on [0, 1]: the row is dropped. *)
  let row =
    { L.expr = L.of_list [ (Q.one, 0) ] (Q.of_int (-2)); op = L.Le; tag = 3 }
  in
  check bool_t "status redundant" true
    (PP.Lp_presolve.status b row = PP.Lp_presolve.Redundant);
  match PP.Lp_presolve.presolve b [ row ] with
  | PP.Lp_presolve.Presolved { kept; dropped; _ } ->
    check int_t "dropped" 1 dropped;
    check int_t "kept" 0 (List.length kept)
  | PP.Lp_presolve.Infeasible_rows _ -> Alcotest.fail "redundant row refuted"

let test_lp_integer_rounding () =
  let b = PP.Lp_presolve.create 1 in
  (* 2*x0 <= 5 with x0 integral: x0 <= 2, not 5/2. *)
  let row =
    {
      L.expr = L.of_list [ (Q.of_int 2, 0) ] (Q.of_int (-5));
      op = L.Le;
      tag = 1;
    }
  in
  (match PP.Lp_presolve.presolve ~is_int:(fun _ -> true) b [ row ] with
  | PP.Lp_presolve.Presolved _ -> ()
  | PP.Lp_presolve.Infeasible_rows _ -> Alcotest.fail "feasible row refuted");
  check some_q_t "x0 <= 2" (Some (Q.of_int 2)) b.PP.Lp_presolve.hi.(0)

(* ------------------------------------------------------------------ *)
(* Icp.                                                                *)

let test_icp_contracts () =
  let box = Box.of_bounds [ (0, I.make (-4.0) 4.0) ] 1 in
  let rel =
    { E.expr = E.sub (E.pow (E.var 0) 2) (E.const Q.one); op = L.Le; tag = 0 }
  in
  match fst (PP.Icp.contract ~box [ rel ]) with
  | `Empty -> Alcotest.fail "x^2 <= 1 is satisfiable on [-4, 4]"
  | `Box (b, narrowed) ->
    check bool_t "narrowed" true (narrowed >= 1);
    let iv = Box.get b 0 in
    check bool_t "within [-1, 1] (outward rounded)" true
      (iv.I.lo >= -1.0001 && iv.I.hi <= 1.0001)

let test_icp_empty () =
  let box = Box.of_bounds [ (0, I.make (-4.0) 4.0) ] 1 in
  let rel =
    { E.expr = E.add (E.pow (E.var 0) 2) (E.const Q.one); op = L.Le; tag = 0 }
  in
  match fst (PP.Icp.contract ~box [ rel ]) with
  | `Empty -> ()
  | `Box _ -> Alcotest.fail "x^2 + 1 <= 0 accepted"

(* ------------------------------------------------------------------ *)
(* The Preprocess driver.                                              *)

let test_driver_arithmetic_refutation () =
  (* Clause 1 fixes "x >= 1"; the second definition "x <= 0" is then
     infeasible on the presolved bounds, so its unit feedback contradicts
     clause 2 — the whole problem dies inside presolve. *)
  let p =
    parse
      {|p cnf 2 2
1 0
2 0
c def real 1 x >= 1
c def real 2 x <= 0
|}
  in
  let pre = A.Preprocess.run p in
  check bool_t "refuted by presolve" true (pre.A.Preprocess.status = `Unsat);
  let result, stats = A.Engine.solve p in
  check bool_t "engine agrees" true (result = A.Engine.R_unsat);
  check int_t "no Boolean model ever examined" 0
    (A.Engine.counter stats "engine.bool_models")

(* With x in [5, 10], "x >= 0" is redundant, so variable 2's definition
   holds unconditionally; the Boolean side alone cannot fix variable 2
   (the clause is no unit), so the fix must come from the arithmetic
   feedback. *)
let unit_def_problem () =
  parse
    {|p cnf 2 1
1 -2 0
c def real 2 x >= 0
c bound x 5 10
|}

let test_driver_unit_def_feedback () =
  let pre = A.Preprocess.run (unit_def_problem ()) in
  check bool_t "still open" true (pre.A.Preprocess.status = `Open);
  check bool_t "unit fed back" true (pre.A.Preprocess.stats.A.Preprocess.unit_defs >= 1);
  check bool_t "defined var fixed true" true
    (List.mem (1, true) pre.A.Preprocess.fixed)

(* Presolve is one pass: the fed-back unit does not send the CNF through
   SAT simplification again. *)
let test_driver_single_pass () =
  let tel = Absolver_telemetry.Telemetry.create () in
  let pre = A.Preprocess.run ~telemetry:tel (unit_def_problem ()) in
  check bool_t "unit fed back" true (pre.A.Preprocess.stats.A.Preprocess.unit_defs >= 1);
  let calls name =
    match List.assoc_opt name (Absolver_telemetry.Telemetry.span_aggregates tel) with
    | Some a -> a.Absolver_telemetry.Telemetry.agg_calls
    | None -> 0
  in
  check int_t "one sat_simplify span" 1 (calls "presolve.sat_simplify");
  check int_t "one feedback span" 1 (calls "presolve.feedback");
  check int_t "no round span" 0 (calls "presolve.round")

let test_driver_box_tightening () =
  (* Fixed definitions imply x in [1, 3] inside the declared [-100, 100]. *)
  let p =
    parse
      {|p cnf 1 1
1 0
c def real 1 x >= 1
c def real 1 x <= 3
c bound x -100 100
|}
  in
  let pre = A.Preprocess.run p in
  check bool_t "bounds tightened" true
    (pre.A.Preprocess.stats.A.Preprocess.tightened_bounds >= 1);
  let iv = Box.get pre.A.Preprocess.box 0 in
  check bool_t "box lower" true (iv.I.lo >= 0.999);
  check bool_t "box upper" true (iv.I.hi <= 3.001)

let test_driver_projected_model () =
  (* Variable 2 is undefined and outside the projection; the engine must
     still hand back a model satisfying the clause (1 or 2). *)
  let p = A.Ab_problem.create () in
  A.Ab_problem.add_clause p [ T.pos 0 ];
  A.Ab_problem.add_clause p [ T.pos 1; T.pos 2 ];
  A.Ab_problem.set_projection p [ 0 ];
  match A.Engine.solve p with
  | A.Engine.R_sat sol, _ ->
    check bool_t "model verifies" true (A.Solution.check p sol = Ok ())
  | _ -> Alcotest.fail "sat expected"

(* ------------------------------------------------------------------ *)
(* Equivalence: engine results with presolve on vs off.                *)

let opts on = { A.Engine.default_options with A.Engine.use_presolve = on }

let verdict = function
  | A.Engine.R_sat _ -> "sat"
  | A.Engine.R_unsat -> "unsat"
  | A.Engine.R_unknown _ -> "unknown"

let check_solve_equiv ?(registry = A.Registry.default) name mk =
  let solve on = A.Engine.solve ~registry ~options:(opts on) (mk ()) in
  let r_on, _ = solve true in
  let r_off, _ = solve false in
  check string_t (name ^ ": same verdict") (verdict r_off) (verdict r_on);
  List.iter
    (fun r ->
      match r with
      | A.Engine.R_sat sol ->
        check bool_t (name ^ ": witness verifies") true
          (A.Solution.check (mk ()) sol = Ok ())
      | A.Engine.R_unsat | A.Engine.R_unknown _ -> ())
    [ r_on; r_off ]

let esat_text =
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

let nonlinear_unsat_text =
  {|p cnf 1 1
1 0
c def real 1 x * x + y * y <= 1
c def real 1 x * y >= 2
c bound x -10 10
c bound y -10 10
|}

let div_text =
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

let fig2_text =
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

let fischer_problem n =
  match F.problem ~rounds:4 ~property:(F.Cs_within (Q.of_int 2)) ~n () with
  | Ok p -> p
  | Error e -> Alcotest.failf "fischer: %s" e

let test_equiv_solve_corpus () =
  check_solve_equiv "esat" (fun () -> parse esat_text);
  check_solve_equiv "nonlinear_unsat" (fun () -> parse nonlinear_unsat_text);
  check_solve_equiv "div" (fun () -> parse div_text);
  check_solve_equiv "fig2" (fun () -> parse fig2_text);
  check_solve_equiv "fischer2" (fun () -> fischer_problem 2);
  check_solve_equiv "fischer3" (fun () -> fischer_problem 3);
  let puzzle = P.generate ~name:"presolve-equiv" ~clues:40 in
  check_solve_equiv "sudoku-mixed" (fun () -> S.absolver_problem puzzle);
  check_solve_equiv "sudoku-sat" (fun () -> S.sat_problem puzzle)

let test_equiv_solve_steering () =
  let registry =
    {
      A.Registry.default with
      A.Registry.nonlinear =
        [
          A.Registry.branch_prune_solver
            ~config:
              {
                Absolver_nlp.Branch_prune.default_config with
                Absolver_nlp.Branch_prune.max_nodes = 600;
                samples_per_node = 2;
                root_samples = 2048;
              }
            ();
        ];
    }
  in
  check_solve_equiv ~registry "steering" (fun () -> M.Steering.problem ())

let model_key projection (sol : A.Solution.t) =
  String.concat ""
    (List.map (fun v -> if sol.A.Solution.bools.(v) then "1" else "0") projection)

let check_all_models_equiv name mk =
  let problem = mk () in
  let projection =
    match A.Ab_problem.projection problem with
    | Some vs -> vs
    | None -> List.init (A.Ab_problem.num_bool_vars problem) Fun.id
  in
  let run on =
    match A.Engine.all_models ~options:(opts on) (mk ()) with
    | Ok (models, _) -> models
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  let m_on = run true and m_off = run false in
  check int_t (name ^ ": same model count") (List.length m_off)
    (List.length m_on);
  let keys ms = List.sort compare (List.map (model_key projection) ms) in
  check (Alcotest.list string_t)
    (name ^ ": same projected models")
    (keys m_off) (keys m_on);
  List.iter
    (fun sol ->
      check bool_t (name ^ ": every model verifies") true
        (A.Solution.check problem sol = Ok ()))
    m_on

let test_equiv_all_models () =
  check_all_models_equiv "disjoint-intervals" (fun () ->
      parse "p cnf 2 1\n1 2 0\nc def real 1 u <= 1\nc def real 2 u >= 2\n");
  check_all_models_equiv "free-clause" (fun () -> parse "p cnf 3 1\n1 2 3 0\n");
  check_all_models_equiv "esat" (fun () -> parse esat_text);
  check_all_models_equiv "fig2" (fun () -> parse fig2_text);
  check_all_models_equiv "fischer2" (fun () -> fischer_problem 2);
  (* Projected inputs, whose variables outside the projection presolve
     must still leave with their models: the smallest one has two such
     variables that occur only negatively; the Sudoku encoding projects
     onto its cell=digit variables, and SMT-LIB 1.2 conversion (also
     behind [fischer_problem]) onto atoms and predicates. *)
  check_all_models_equiv "projected-negative-pair" (fun () ->
      let p = parse "p cnf 3 2\n1 0\n-2 -3 0\n" in
      A.Ab_problem.set_projection p [ 0 ];
      p);
  let puzzle = P.generate ~name:"presolve-equiv" ~clues:40 in
  check_all_models_equiv "sudoku-mixed" (fun () -> S.absolver_problem puzzle);
  check_all_models_equiv "fischer2-unsplit-eq" (fun () ->
      match
        Absolver_smtlib.To_ab.convert_split_eq ~split_eq:false
          (F.benchmark ~rounds:4 ~property:(F.Cs_within (Q.of_int 2)) ~n:2 ())
      with
      | Ok p -> p
      | Error e -> Alcotest.failf "fischer: %s" e)

let test_equiv_optimize () =
  let mk () =
    parse
      {|p cnf 3 2
1 2 0
-2 3 0
c def real 1 u <= 2
c def real 2 u >= 5
c def real 3 u <= 7
c bound u 0 10
|}
  in
  let run on dir = A.Engine.optimize ~options:(opts on) ~objective:(L.var 0) dir (mk ()) in
  let value name a b =
    match (a, b) with
    | A.Engine.Opt_best (va, _), A.Engine.Opt_best (vb, _) ->
      check bool_t (name ^ ": same optimum") true (Q.equal va vb)
    | A.Engine.Opt_unsat, A.Engine.Opt_unsat
    | A.Engine.Opt_unbounded, A.Engine.Opt_unbounded
    | A.Engine.Opt_unknown _, A.Engine.Opt_unknown _ -> ()
    | _ -> Alcotest.failf "%s: outcomes differ with presolve" name
  in
  value "max" (run true `Maximize) (run false `Maximize);
  value "min" (run true `Minimize) (run false `Minimize);
  let unsat = parse "p cnf 2 2\n1 0\n2 0\nc def real 1 u <= 1\nc def real 2 u >= 2\n" in
  match A.Engine.optimize ~options:(opts true) ~objective:(L.var 0) `Maximize unsat with
  | A.Engine.Opt_unsat -> ()
  | _ -> Alcotest.fail "presolved optimize must report unsat"

(* A deterministic LCG so the random corpus is reproducible. *)
let test_equiv_random_problems () =
  let state = ref 123456789 in
  let rand m =
    state := ((1103515245 * !state) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  for _ = 1 to 25 do
    let nb = 4 in
    let p = A.Ab_problem.create () in
    let x = A.Ab_problem.intern_arith_var p "x" in
    let y = A.Ab_problem.intern_arith_var p "y" in
    A.Ab_problem.set_bounds p x ~lower:(Q.of_int (-8)) ~upper:(Q.of_int 8) ();
    A.Ab_problem.set_bounds p y ~lower:(Q.of_int (-8)) ~upper:(Q.of_int 8) ();
    for v = 0 to nb - 1 do
      let a = rand 5 - 2 and b = rand 5 - 2 and c = rand 9 - 4 in
      let op = match rand 3 with 0 -> L.Le | 1 -> L.Ge | _ -> L.Lt in
      if a <> 0 || b <> 0 then
        A.Ab_problem.define p ~bool_var:v ~domain:A.Ab_problem.Dreal
          {
            E.expr =
              E.sub
                (E.add
                   (E.mul (E.const (Q.of_int a)) (E.var x))
                   (E.mul (E.const (Q.of_int b)) (E.var y)))
                (E.const (Q.of_int c));
            op;
            tag = v;
          }
    done;
    for _ = 1 to 5 do
      let lit () =
        let v = rand nb in
        if rand 2 = 0 then T.pos v else T.neg_of_var v
      in
      let c = List.sort_uniq compare [ lit (); lit (); lit () ] in
      A.Ab_problem.add_clause p c
    done;
    (match A.Ab_problem.validate p with
    | Ok () -> ()
    | Error e -> Alcotest.failf "generated problem invalid: %s" e);
    let r_on = fst (A.Engine.solve ~options:(opts true) p) in
    let r_off = fst (A.Engine.solve ~options:(opts false) p) in
    check string_t "random: same verdict" (verdict r_off) (verdict r_on);
    let count on =
      match A.Engine.all_models ~options:(opts on) ~limit:64 p with
      | Ok (ms, _) -> List.length ms
      | Error e -> Alcotest.failf "random all-models: %s" e
    in
    check int_t "random: same model count" (count false) (count true)
  done

let suite =
  [
    ("sat: unit chain", `Quick, test_sat_unit_chain);
    ("sat: failed literal", `Quick, test_sat_failed_literal);
    ("sat: root unsat", `Quick, test_sat_root_unsat);
    ("sat: identity on paper CNFs", `Quick, test_sat_identity_named);
    ("sat: identity on random CNFs", `Quick, test_sat_identity_random);
    ("sat: model sets by brute force", `Quick, test_sat_model_sets);
    ("lp: singleton + propagation", `Quick, test_lp_singleton_and_propagation);
    ("lp: infeasible", `Quick, test_lp_infeasible);
    ("lp: redundant", `Quick, test_lp_redundant);
    ("lp: integer rounding", `Quick, test_lp_integer_rounding);
    ("icp: contraction", `Quick, test_icp_contracts);
    ("icp: empty", `Quick, test_icp_empty);
    ("driver: arithmetic refutation", `Quick, test_driver_arithmetic_refutation);
    ("driver: unit-def feedback", `Quick, test_driver_unit_def_feedback);
    ("driver: one presolve pass", `Quick, test_driver_single_pass);
    ("driver: box tightening", `Quick, test_driver_box_tightening);
    ("driver: projected model verifies", `Quick, test_driver_projected_model);
    ("equiv: solve corpus", `Quick, test_equiv_solve_corpus);
    ("equiv: steering", `Slow, test_equiv_solve_steering);
    ("equiv: all-models", `Quick, test_equiv_all_models);
    ("equiv: optimize", `Quick, test_equiv_optimize);
    ("equiv: random problems", `Quick, test_equiv_random_problems);
  ]
