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

let protect_all _ = true

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
      (PP.Sat_simplify.simplify ~protect:protect_all ~nvars:3
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
      (PP.Sat_simplify.simplify ~protect:protect_all ~nvars:3
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
      (PP.Sat_simplify.simplify ~protect:protect_all ~nvars:3
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

let test_sat_pure_and_restore () =
  (* b occurs only positively and is unprotected: the clause dies; the
     reconstruction map must turn any model of the residual CNF into a
     model of the original one. *)
  let original = [ [ T.pos 0; T.pos 1 ] ] in
  let s =
    simplified
      (PP.Sat_simplify.simplify ~protect:(fun v -> v = 0) ~nvars:2 original)
  in
  check bool_t "b eliminated as pure true" true
    (List.mem (1, true) s.PP.Sat_simplify.pure);
  let model = [| false; false |] in
  PP.Sat_simplify.restore ~pure:s.PP.Sat_simplify.pure model;
  let sat_clause c =
    List.exists
      (fun l -> model.(T.var_of l) = T.is_pos l)
      c
  in
  check bool_t "restored model satisfies the original CNF" true
    (List.for_all sat_clause original)

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
   of the CNFs on average) an empty clause. Returns the variable count,
   the clauses and a random [protect] mask. *)
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
  let mask = Array.init nvars (fun _ -> rand 3 = 0) in
  let protect =
    match rand 3 with
    | 0 -> fun _ -> false
    | 1 -> fun _ -> true
    | _ -> fun v -> v < nvars && mask.(v)
  in
  (nvars, clauses, protect)

(* ------------------------------------------------------------------ *)
(* Sat_simplify identity: the full result, pinned.                     *)

(* Everything [simplify] returns, as one digest: the clauses in order,
   [fixed], [pure] and every stats field. *)
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
    List.iter add_assignment s.PP.Sat_simplify.pure;
    Buffer.add_char b '|';
    let st = s.PP.Sat_simplify.stats in
    List.iter add_int
      PP.Sat_simplify.
        [
          st.fixed_literals;
          st.pure_literals;
          st.removed_clauses;
          st.strengthened_literals;
          st.probes;
          st.failed_literals;
        ]);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The CNF skeleton of a paper problem; definition variables protected. *)
let simplify_skeleton p =
  let defined = A.Ab_problem.defined_vars p in
  PP.Sat_simplify.simplify
    ~protect:(fun v -> List.mem v defined)
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
      let nvars, clauses, protect =
        random_cnf rand ~max_vars:24 ~empty_every:15
      in
      (* [simplify] must also cope with an undercounted [nvars]. *)
      let declared = if rand 4 = 0 then nvars - 1 else nvars in
      let r =
        if i mod 6 = 0 then
          PP.Sat_simplify.simplify ~probe_limit:(rand 4) ~protect ~nvars:declared
            clauses
        else PP.Sat_simplify.simplify ~protect ~nvars:declared clauses
      in
      String.sub (digest_result r) 0 8)

(* Digests of the list-based simplifier's results, computed before the
   flat rewrite; the rewrite must reproduce them bit for bit. *)
let identity_named_pins =
  [
    ("2006_05_23_hard", "22efe2ce228f29db98969bc9292991b3");
    ("2006_05_24_hard", "c28728658f79168b7d5f86ef86d02b5a");
    ("2006_05_25_hard", "854fc58db74e20135a4ef7f0aec729bc");
    ("2006_05_26_hard", "f75f55f427275c32709279b359d704a8");
    ("2006_05_27_hard", "d8197e3169569f9b1c371d59047ca735");
    ("2006_05_28_hard", "33617d2c05edf2b6765a4338297361d6");
    ("2006_05_29_easy", "4b6a4cf06e82e679369ffff236856e34");
    ("2006_05_29_hard", "c76f030c483df804a8936f71ec03ec25");
    ("2006_05_30_easy", "f1407a9f8b43bcc582dbb04bd5e8d594");
    ("2006_05_30_hard", "7b20aaa670159b53d78a183dcd49c8cb");
    ("FISCHER1", "1c47e5f753456d05ea7addd8ece5ea95");
    ("FISCHER2", "a4e03239ec352d058acb2c17fd71ad37");
    ("FISCHER3", "6f3944f9e1323a2568dc80efbd3e3430");
    ("FISCHER4", "6973a5481e3a6b2cb1a12aeaab2ca778");
    ("FISCHER5", "93f98b2a3f539cb3dedd52ae07a603dc");
    ("FISCHER6", "87947901213172b9f91a445b515a78eb");
    ("steering", "df36c3e3d41e77295456e80e69e842e6");
  ]

let identity_random_pins =
  [|
    "07483a9a"; "023faeab"; "dd1bd83e"; "d1bf559e"; "1c955e71"; "e3533188";
    "ab76ca46"; "ff7b2dac"; "ab76ca46"; "f9edc5ab"; "e927fcfc"; "3ea3d238";
    "4df63647"; "bc0934ec"; "c07ea204"; "ab76ca46"; "ab76ca46"; "19ce25b3";
    "7e6986c9"; "ab76ca46"; "3c0e483e"; "f27cdfa6"; "ab76ca46"; "1ef5f57e";
    "d804adf4"; "3753b1b7"; "ab76ca46"; "fe82a1dd"; "882e392f"; "ad58d7e7";
    "5248cedd"; "b0c9fde6"; "6439dfe5"; "ab76ca46"; "5391a935"; "3c9c2394";
    "0dec8948"; "2bb57a5d"; "8cde1041"; "1b5d5ffc"; "aa1b3792"; "493d1b00";
    "d4de39d9"; "348b8371"; "fc4a34fd"; "ab76ca46"; "cc4d0903"; "f8b70737";
    "5931b437"; "ab76ca46"; "2a77a757"; "984c770b"; "5cd06825"; "19ca1ddf";
    "06950115"; "bcb0b95d"; "f3040133"; "ac1dee39"; "ab76ca46"; "f913c446";
    "35deee7b"; "1a30ac3f"; "ba443ca3"; "a0202a7d"; "31449041"; "707e84f8";
    "ab76ca46"; "ab76ca46"; "17fe46ea"; "da28965d"; "7d1ec901"; "375c1025";
    "59e0665e"; "f975e748"; "2b8eb30a"; "597cdb91"; "ab76ca46"; "ab76ca46";
    "ab76ca46"; "d081208c"; "d55dd13c"; "368a1727"; "ab76ca46"; "e4256f90";
    "ab76ca46"; "ab76ca46"; "95782693"; "3c5afe6f"; "ab76ca46"; "0c6d3b73";
    "861c4d2d"; "6af27d3a"; "ab76ca46"; "ab76ca46"; "a47adbf3"; "11f08e10";
    "61eba723"; "28a27ef1"; "ab76ca46"; "8b853001"; "9c511fa5"; "e77401fb";
    "ab76ca46"; "ab76ca46"; "ab76ca46"; "ab76ca46"; "7ed72712"; "b5fb8d7e";
    "889d79ae"; "ee5866b4"; "ab76ca46"; "2b3ff5fa"; "fe72872e"; "a3694325";
    "bd4a46e6"; "34fe593a"; "a77847f6"; "6077f740"; "ec44b330"; "a2903364";
    "743ef5c9"; "3ebd793c"; "46aea6cb"; "cb272af7"; "97e26bfe"; "e0de6b0b";
    "8ac5e993"; "e479ebbc"; "f178eb01"; "d79ad1fa"; "271653d1"; "67fef087";
    "33982822"; "5ba80ea0"; "8ac522e7"; "ab76ca46"; "a41fedfe"; "f5d3b911";
    "ab1d68a0"; "d71339df"; "b8cb79d4"; "b47c713c"; "d0673898"; "ab76ca46";
    "ab76ca46"; "70f7a930"; "1d7f5bdf"; "44521e47"; "18f59aec"; "935a040b";
    "f9d3dd6b"; "4a50ac8c"; "84d293c2"; "7f35ac4d"; "47774193"; "ab76ca46";
    "b075856e"; "1a07bc8d"; "97877095"; "767451cc"; "7f333849"; "42f5b91b";
    "ffa9137c"; "ab76ca46"; "ab76ca46"; "98391c56"; "7a3504e7"; "a270b6aa";
    "0668d899"; "10b785a3"; "f669e92f"; "ab76ca46"; "2fa38a18"; "208ed215";
    "d88c6e80"; "e960f6f4"; "c090c28f"; "2aef3cc5"; "7b502c64"; "30ba71be";
    "5e6eba3f"; "678eeb43"; "70de5405"; "e1e4eebc"; "7343f328"; "8e8a0b01";
    "aa274d82"; "c40ecc64"; "f5221194"; "65c8810b"; "9eca5d24"; "a9d1cc81";
    "48b147f7"; "29503d16"; "ab76ca46"; "095d190a"; "a67a2711"; "ab76ca46";
    "6fa3992c"; "082252ac"; "bad7a33b"; "43845da6"; "ab76ca46"; "75e2923e";
    "bdaf4342"; "ab76ca46"; "b6123a40"; "23002993"; "5455df13"; "313c5457";
    "f7cb7172"; "80d00962"; "05f33e54"; "3121fa7c"; "310d95e0"; "c4961b02";
    "b28be6b9"; "5ffcac29"; "bf8a9fd0"; "2ad80bc4"; "5207ee25"; "e8a625a8";
    "ab76ca46"; "ab9e9774"; "ab76ca46"; "2db7c1ac"; "95b16941"; "59f392bd";
    "0dd2d4b2"; "01465fc7"; "b365da56"; "d4033e05"; "5c491237"; "e455ebe5";
    "299dc66e"; "6a411e71"; "824c3c1a"; "6d4c2b92"; "ab76ca46"; "224019d2";
    "e2d7c881"; "59ae00d5"; "eec49758"; "1788bc96"; "8165842e"; "24c26262";
    "0b78699e"; "c844270f"; "aef7a064"; "1d63890c"; "630bd7f4"; "5265062e";
    "ab76ca46"; "afe99b79"; "ab76ca46"; "0fbc117c"; "4dedfc2b"; "a68e214c";
    "2750d0c8"; "c77aabd5"; "a6259a44"; "d285ed82"; "4878bf79"; "6cb82e48";
    "d897464a"; "ab76ca46"; "3f644ecf"; "33068361"; "0eb9d470"; "6e951a82";
    "0e5db6b2"; "2513dcf2"; "e6c79824"; "35d4ba6a"; "9a87d6e5"; "c60da000";
    "f9ca54f4"; "f0d1c24f"; "ab76ca46"; "ab76ca46"; "0c8153ca"; "92ec770c";
    "f52d3503"; "c32b602c"; "cbcffff8"; "b4eade5f"; "94bb9a4e"; "ab76ca46";
    "0e2d5fb8"; "3a7dd078"; "cad13943"; "ab76ca46"; "b3778a39"; "ab76ca46";
    "ab76ca46"; "46449929"; "39f21a63"; "820dcc6b"; "5a0eb64b"; "35536099";
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
   - [Unsat] only when the input has no model, and a simplified CNF has
     a model exactly when the input does;
   - every fixed literal holds in every model of the input;
   - every model of the result, patched with [restore], is a model of
     the input;
   - both model sets agree once projected onto the protected variables. *)
let check_model_sets name n clauses protect result =
  let input = all_models n clauses in
  match result with
  | PP.Sat_simplify.Unsat ->
    check int_t (name ^ ": unsat input") 0 (List.length input)
  | PP.Sat_simplify.Simplified s ->
    let output = all_models n s.PP.Sat_simplify.clauses in
    check bool_t (name ^ ": satisfiable iff the input is") (input <> [])
      (output <> []);
    List.iter
      (fun (v, b) ->
        check bool_t (name ^ ": fixed literal holds in every input model") true
          (List.for_all (fun m -> m.(v) = b) input))
      s.PP.Sat_simplify.fixed;
    List.iter
      (fun m ->
        let m = Array.copy m in
        PP.Sat_simplify.restore ~pure:s.PP.Sat_simplify.pure m;
        check bool_t (name ^ ": restored model satisfies the input") true
          (satisfies m clauses))
      output;
    let protected = List.filter protect (List.init n Fun.id) in
    let projected models =
      List.sort_uniq compare
        (List.map
           (fun m -> List.map (fun v -> m.(v)) protected)
           models)
    in
    check
      Alcotest.(list (list bool))
      (name ^ ": same models on the protected variables")
      (projected input) (projected output)

(* Seeded CNFs over at most 10 variables, each simplified without a
   budget, with a step budget that runs out during the first
   subsumption pass (one step per clause), and with one that runs out
   during the first probe pass (one step per probed variable). *)
let test_sat_model_sets () =
  let rand = lcg 1607 in
  let tripped = ref 0 in
  for i = 1 to 200 do
    let n, clauses, protect = random_cnf rand ~max_vars:10 ~empty_every:40 in
    let ncls = List.length clauses in
    let run budget =
      try PP.Sat_simplify.simplify ?budget ~protect ~nvars:n clauses
      with e -> Alcotest.failf "CNF %d: %s escaped" i (Printexc.to_string e)
    in
    check_model_sets (Printf.sprintf "CNF %d" i) n clauses protect (run None);
    List.iter
      (fun (phase, max_steps) ->
        let budget = Absolver_resource.Budget.create ~max_steps () in
        let result = run (Some budget) in
        if Absolver_resource.Budget.tripped budget <> None then incr tripped;
        check_model_sets
          (Printf.sprintf "CNF %d, budget out %s" i phase)
          n clauses protect result)
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

let test_driver_unit_def_feedback () =
  (* With x in [5, 10], "x >= 0" is redundant, so variable 2's definition
     holds unconditionally; the Boolean side alone cannot fix variable 2
     (the clause is no unit), so the fix must come from the arithmetic
     feedback. *)
  let p =
    parse
      {|p cnf 2 1
1 -2 0
c def real 2 x >= 0
c bound x 5 10
|}
  in
  let pre = A.Preprocess.run p in
  check bool_t "still open" true (pre.A.Preprocess.status = `Open);
  check bool_t "unit fed back" true (pre.A.Preprocess.stats.A.Preprocess.unit_defs >= 1);
  check bool_t "defined var fixed true" true
    (List.mem (1, true) pre.A.Preprocess.fixed)

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

let test_driver_model_reconstruction () =
  (* Variable 2 is undefined and outside the projection, so presolve may
     eliminate it as pure; the engine must still hand back a model
     satisfying the clause (1 or 2) via restore_model. *)
  let p = A.Ab_problem.create () in
  A.Ab_problem.add_clause p [ T.pos 0 ];
  A.Ab_problem.add_clause p [ T.pos 1; T.pos 2 ];
  A.Ab_problem.set_projection p [ 0 ];
  let pre = A.Preprocess.run p in
  check bool_t "some variable eliminated as pure" true
    (pre.A.Preprocess.pure <> []);
  match A.Engine.solve p with
  | A.Engine.R_sat sol, _ ->
    check bool_t "reconstructed model verifies" true
      (A.Solution.check p sol = Ok ())
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
  check_all_models_equiv "fischer2" (fun () -> fischer_problem 2)

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
    ("sat: pure + restore", `Quick, test_sat_pure_and_restore);
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
    ("driver: box tightening", `Quick, test_driver_box_tightening);
    ("driver: model reconstruction", `Quick, test_driver_model_reconstruction);
    ("equiv: solve corpus", `Quick, test_equiv_solve_corpus);
    ("equiv: steering", `Slow, test_equiv_solve_steering);
    ("equiv: all-models", `Quick, test_equiv_all_models);
    ("equiv: optimize", `Quick, test_equiv_optimize);
    ("equiv: random problems", `Quick, test_equiv_random_problems);
  ]
