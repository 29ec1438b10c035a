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

let lit_list_t = Alcotest.(list int)

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

let test_sat_subsumption () =
  let s =
    simplified
      (PP.Sat_simplify.simplify ~nvars:3
         [ [ T.pos 0; T.pos 1 ]; [ T.pos 0; T.pos 1; T.pos 2 ] ])
  in
  check int_t "subsumed clause removed" 1 (List.length s.PP.Sat_simplify.clauses);
  check lit_list_t "the short clause survives" [ T.pos 0; T.pos 1 ]
    (List.sort compare (List.hd s.PP.Sat_simplify.clauses))

let test_sat_self_subsumption () =
  (* (a or b) and (-a or b or c): resolving on a strengthens the second
     clause to (b or c). *)
  let s =
    simplified
      (PP.Sat_simplify.simplify ~nvars:3
         [ [ T.pos 0; T.pos 1 ]; [ T.neg_of_var 0; T.pos 1; T.pos 2 ] ])
  in
  check bool_t "one literal strengthened" true
    (s.PP.Sat_simplify.stats.PP.Sat_simplify.strengthened_literals >= 1);
  check bool_t "(b or c) present" true
    (List.exists
       (fun c -> List.sort compare c = [ T.pos 1; T.pos 2 ])
       s.PP.Sat_simplify.clauses)

let test_sat_failed_literal () =
  (* Assuming a propagates b, then c, then a conflict with (-a or -c);
     the implication needs two steps, so neither subsumption nor
     resolution sees it — only probing fixes a to false. *)
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
     clauses overlap often enough to subsume and strengthen each other. *)
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
          st.strengthened_literals;
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

(* 300 seeded random CNFs; every sixth one also caps the probe count. *)
let identity_random () =
  let rand = lcg 20070601 in
  List.init 300 (fun i ->
      let nvars, clauses = random_cnf rand ~max_vars:24 ~empty_every:15 in
      (* [simplify] must also cope with an undercounted [nvars]. *)
      let declared = if rand 4 = 0 then nvars - 1 else nvars in
      let r =
        if i mod 6 = 0 then
          PP.Sat_simplify.simplify ~probe_limit:(rand 4) ~nvars:declared clauses
        else PP.Sat_simplify.simplify ~nvars:declared clauses
      in
      String.sub (digest_result r) 0 8)

(* Digests of the single-pass simplifier's results (one subsumption pass,
   one probing pass). They equal those of the earlier multi-round
   simplifier cut to its first round; the simplifier must reproduce them
   bit for bit. *)
let identity_named_pins =
  [
    ("2006_05_23_hard", "7c66b9215bf5910885f9d4b38ec3fe7a");
    ("2006_05_24_hard", "b30f7cda00b54975b96cffc212fbdde8");
    ("2006_05_25_hard", "5ad1785a15edccbcc1f8faaa722c30f7");
    ("2006_05_26_hard", "d2ff266073ee2572c39ba9cceb9b7020");
    ("2006_05_27_hard", "98b363a9500ef2df7ad2a1aee13da88e");
    ("2006_05_28_hard", "07289f48e2098ba09fed4342cbbd4c78");
    ("2006_05_29_easy", "a5a59a2ffe833577771368d305389f80");
    ("2006_05_29_hard", "41d76a8c814891268fa7bae8c5a8805a");
    ("2006_05_30_easy", "7e08986a170605023104e34cda111980");
    ("2006_05_30_hard", "5765689c23b684027b250c876f27eeca");
    ("FISCHER1", "396230dd5af1cf9df16e796062df2c3d");
    ("FISCHER2", "0eee4593bd9ccf8660838e23f662c0a9");
    ("FISCHER3", "36df5b068fd62405a864dc4d590bf84a");
    ("FISCHER4", "5aca49b1025d4e76a68e72ab2710456c");
    ("FISCHER5", "a07dff3e09a084a5cc828e7ec3f50c73");
    ("FISCHER6", "718fb6fdfc2f0746caae73e355b5d447");
    ("steering", "64de5e015c6fb041db76a49411218b6a");
  ]

let identity_random_pins =
  [|
    "78f0121a"; "c343b37c"; "8e63b250"; "ab76ca46"; "a0fd1362"; "5e548b7b";
    "ab76ca46"; "a23a6286"; "ab76ca46"; "058a890e"; "331770e4"; "ab76ca46";
    "5af4b27c"; "ab76ca46"; "ef2c8423"; "8071e249"; "34ce544b"; "75d142b2";
    "7c52e0e0"; "ab76ca46"; "8f6499b4"; "72a6f663"; "e6dad8cd"; "4dc4f707";
    "ab76ca46"; "ab76ca46"; "08d0d64c"; "d5d1443d"; "dbe0712c"; "be303029";
    "27256161"; "df2fcfa2"; "4da0d2a9"; "a884c3d4"; "09db31bf"; "4daca5d7";
    "ab76ca46"; "f08d3b58"; "ab76ca46"; "2cae6b31"; "4c3e4c17"; "e7fb40e3";
    "b2d86673"; "3180e2bd"; "a87ac97f"; "b17d4967"; "52c30f2c"; "b38d9fed";
    "e3c115b0"; "ab76ca46"; "7fef8ce9"; "72206fd8"; "bba8613f"; "2b3a3ef7";
    "ab76ca46"; "32104b7c"; "0417808f"; "e8330b00"; "18061377"; "ab76ca46";
    "7f310914"; "d1e79f4d"; "4e0fb9b7"; "ab76ca46"; "91c7861d"; "0c4ac933";
    "3ae53b66"; "caee5993"; "ab76ca46"; "dc20068e"; "ed11ffef"; "61860e56";
    "ab76ca46"; "ab76ca46"; "a1c54f04"; "79829a8a"; "9ee2962f"; "abb74fb1";
    "ab76ca46"; "c0391a15"; "42544ea8"; "ab76ca46"; "c26cea0b"; "dca5c12d";
    "222bda46"; "48c6dfeb"; "c9a320d9"; "64dcfd03"; "ab76ca46"; "fbd5ad2e";
    "e1ac735e"; "ab76ca46"; "74768448"; "21dca6d0"; "cc0da926"; "0aed13c5";
    "ad6c938e"; "ab76ca46"; "24ffa399"; "328968e6"; "ad6cb9a7"; "90f79892";
    "cedc38f4"; "00111eb1"; "a07f4200"; "371d001b"; "29397592"; "f75d94ef";
    "ab76ca46"; "da5aadae"; "bc4fd361"; "06b3151d"; "d3edc26f"; "03bb2b96";
    "ab76ca46"; "ab76ca46"; "cbec5fae"; "181525d1"; "89ab405f"; "cb99a5f8";
    "fc38ab83"; "2c8a1fdb"; "84694ba4"; "b2dea907"; "ab76ca46"; "805230fd";
    "292aad05"; "9286bab2"; "c4810b3e"; "e607e822"; "ab76ca46"; "ab76ca46";
    "94dd28ee"; "4f9f2b3c"; "bf5aaf42"; "1f88ee80"; "331fb3fb"; "ad304ee8";
    "ab76ca46"; "970acc30"; "378bb476"; "2cfab4b3"; "ea0304b0"; "12d27bbf";
    "bed218bc"; "57c2e826"; "ab76ca46"; "310033af"; "06de2b8d"; "cc4cd66b";
    "7917dd16"; "ab76ca46"; "e1b618f0"; "a1762050"; "3c9a5db5"; "3c6689fa";
    "0dbc1366"; "3b8ee263"; "9f9774bb"; "0aed7fe1"; "ab76ca46"; "ab76ca46";
    "5815e7c6"; "0d87d0f5"; "f667afae"; "d3684c41"; "ab76ca46"; "957de8f4";
    "82af4370"; "4d855cb8"; "a8cce88f"; "f10df026"; "c069008c"; "308fc1dd";
    "44a9784a"; "7c7644e9"; "cf62f633"; "39bde64b"; "c6207362"; "ab76ca46";
    "6793b68b"; "0058fcf8"; "b8137cc9"; "d02985a3"; "a9f5d199"; "9d99f076";
    "42d9624c"; "6379c449"; "ab76ca46"; "bd24a071"; "07da1532"; "14e6ad72";
    "db39dce2"; "25fc8e59"; "465acdd6"; "7e78c96e"; "5240da0f"; "1f05516f";
    "3aeae9d8"; "87958beb"; "fa31045f"; "7154f008"; "27a40f72"; "40b7484e";
    "ab76ca46"; "fe5aa390"; "5d36ed99"; "ab76ca46"; "6ec438cf"; "fbef7e9a";
    "d4531dde"; "13afdfe1"; "8d0fb341"; "4c3c5ae0"; "ab76ca46"; "cd4f6957";
    "81813718"; "af31433c"; "99703306"; "6486cd2b"; "d6931ec0"; "e6dad8cd";
    "b1591741"; "59414933"; "2eb83083"; "f043a3cf"; "ab76ca46"; "a6ed83a8";
    "3c0964e4"; "ab76ca46"; "5add7f28"; "0b593f6b"; "ab76ca46"; "fa7a7a7a";
    "51d627e3"; "44928d29"; "fed6b3aa"; "09a02bad"; "ecefe926"; "81d1a283";
    "cf3fb616"; "440315c9"; "cd52dd0f"; "f96dbce0"; "7628a793"; "8ec5eacd";
    "e96ae156"; "27cb9168"; "4eb91f2d"; "74941914"; "c9645195"; "202ad8cd";
    "aff6e81d"; "998f4e0a"; "ab76ca46"; "b8a12844"; "fc7d0848"; "1dce0352";
    "1f49bea4"; "8e138da6"; "aa0df5c8"; "f5690d52"; "ab76ca46"; "46c0b1fc";
    "50e99550"; "098376dc"; "ab76ca46"; "728b5c92"; "abbde093"; "9d1ed495";
    "1d94b0e1"; "6fdcb488"; "6f1d165f"; "2661bcd0"; "2d9ba81e"; "2b14bdb2";
    "c1ffed6a"; "d53f81df"; "a509f8ab"; "ab76ca46"; "3cb55339"; "7b55d422";
    "ac573fc5"; "7d2f2323"; "7a8f77b8"; "3cad58cc"; "5f397934"; "af0cb610";
    "8ef1efd7"; "350b06eb"; "6f8b3564"; "ab76ca46"; "f3f9946b"; "9d168ff0";
    "ab76ca46"; "6a167f9c"; "50b69d3c"; "ab76ca46"; "a0fcf800"; "ab76ca46";
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
   budget, with a step budget that runs out during the first
   subsumption pass (one step per clause), and with one that runs out
   during the first probe pass (one step per probed variable). *)
let test_sat_model_sets () =
  let rand = lcg 1607 in
  let tripped = ref 0 in
  for i = 1 to 200 do
    let n, clauses = random_cnf rand ~max_vars:10 ~empty_every:40 in
    let ncls = List.length clauses in
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
      [ ("mid-subsumption", rand ncls); ("mid-probing", ncls + rand n) ]
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
    ("sat: subsumption", `Quick, test_sat_subsumption);
    ("sat: self-subsumption", `Quick, test_sat_self_subsumption);
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
