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
module Cdcl = Absolver_sat.Cdcl
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

(* ------------------------------------------------------------------ *)
(* The SAT pass: root propagation and probing inside CDCL.             *)

(* What the SAT pass leaves of a bare CNF, run as [Preprocess.run] runs
   it: the bulk load with its root propagation, one probing pass and the
   level-0 compaction. [fixed] is sorted; [cnf] is the solver's stored
   problem ({!Cdcl.clauses}: the root units, then the surviving
   clauses). [None] when the CNF is refuted. *)
type presolved = { fixed : T.lit list; cnf : T.lit list list; failed : int }

let presolve_cnf ?budget ~nvars clauses =
  let s = Cdcl.create () in
  Cdcl.ensure_vars s nvars;
  Cdcl.load s clauses;
  let failed = if Cdcl.is_unsat s then 0 else Cdcl.probe ?budget s in
  Cdcl.compact s;
  if Cdcl.is_unsat s then None
  else Some { fixed = List.sort compare (Cdcl.fixed s); cnf = Cdcl.clauses s; failed }

let presolved = function
  | None -> Alcotest.fail "unexpected root unsat"
  | Some p -> p

let test_sat_unit_chain () =
  let p =
    presolved
      (presolve_cnf ~nvars:3
         [
           [ T.pos 0 ];
           [ T.neg_of_var 0; T.pos 1 ];
           [ T.neg_of_var 1; T.pos 2 ];
         ])
  in
  check (Alcotest.list int_t) "three vars fixed true" [ T.pos 0; T.pos 1; T.pos 2 ] p.fixed;
  (* The output CNF is the three units. *)
  check int_t "unit clauses" 3 (List.length p.cnf);
  List.iter (fun c -> check int_t "unit" 1 (List.length c)) p.cnf

let test_sat_failed_literal () =
  (* Assuming a propagates b, then c, then a conflict with (-a or -c);
     no clause is a unit, so unit propagation fixes nothing — only
     probing fixes a to false. *)
  let p =
    presolved
      (presolve_cnf ~nvars:3
         [
           [ T.neg_of_var 0; T.pos 1 ];
           [ T.neg_of_var 1; T.pos 2 ];
           [ T.neg_of_var 0; T.neg_of_var 2 ];
         ])
  in
  check bool_t "a fixed false" true (List.mem (T.neg_of_var 0) p.fixed);
  check bool_t "a failed probe counted" true (p.failed >= 1)

let test_sat_root_unsat () =
  match presolve_cnf ~nvars:1 [ [ T.pos 0 ]; [ T.neg_of_var 0 ] ] with
  | None -> ()
  | Some _ -> Alcotest.fail "contradictory units accepted"

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
(* SAT-pass identity: the full result, pinned.                         *)

(* What the SAT pass fixed and kept, as one digest: the fixed literals
   in ascending order, the surviving clauses in input order, each in
   ascending literal order, and the number of failed probes. The order
   the engine happens to fix literals in does not enter it. *)
let digest_result r =
  let b = Buffer.create 4096 in
  let add_int n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ' '
  in
  (match r with
  | None -> Buffer.add_string b "unsat"
  | Some p ->
    List.iter add_int p.fixed;
    Buffer.add_char b '|';
    List.iter
      (fun c ->
        if List.length c > 1 then begin
          List.iter add_int (List.sort compare c);
          Buffer.add_char b ';'
        end)
      p.cnf;
    Buffer.add_char b '|';
    add_int p.failed);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The CNF skeleton of a paper problem. *)
let simplify_skeleton p =
  presolve_cnf ~nvars:(A.Ab_problem.num_bool_vars p) (A.Ab_problem.clauses p)

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
      (* The load must also cope with an undercounted [nvars]. *)
      let declared = if rand 4 = 0 then nvars - 1 else nvars in
      String.sub (digest_result (presolve_cnf ~nvars:declared clauses)) 0 8)

let identity_named_pins =
  [
    ("2006_05_23_hard", "1cd86110e6d2eb44fcf022c229d45676");
    ("2006_05_24_hard", "3d3494b1572d2e1e987fd5f5cc7aa2a0");
    ("2006_05_25_hard", "32af9b2b409a5ed6b704750d4dce438e");
    ("2006_05_26_hard", "319aa489fa06e06ec591720779851474");
    ("2006_05_27_hard", "6a8f321d1bea2e7b91ffe133f56869e9");
    ("2006_05_28_hard", "254ab7f97f245c9967208bad440a1bc3");
    ("2006_05_29_easy", "4cbf1be8ec4b7c7273ebb6a79ac7d98b");
    ("2006_05_29_hard", "32acaa8fd1278ed0f3b33538050b4cd4");
    ("2006_05_30_easy", "06dae3a804da2f4db27250c2ed68faef");
    ("2006_05_30_hard", "4fc75beca51f7f986310992f5efc7508");
    ("FISCHER1", "8fbd3ef7d5e5a5755552fecaf3ba7668");
    ("FISCHER2", "1e267b4b84ab353514b022a6b66e0c79");
    ("FISCHER3", "a65256691e5149e13ac9c89deba23136");
    ("FISCHER4", "5a41df1876a9c83a26c6a062e8cf7ffb");
    ("FISCHER5", "52b82a5f30bb7a0dbff74c53c377892e");
    ("FISCHER6", "aee97bf558f9d99d0b2388d3647f767d");
    ("steering", "811fe5c33dcaae9796deaf0a3ab18c90");
  ]

let identity_random_pins =
  [|
    "c50ec55a"; "ab76ca46"; "0fcfbc26"; "429c99f0"; "679f2ad9"; "ab76ca46";
    "ab76ca46"; "799221d3"; "1111714f"; "91a1c8d7"; "17d07171"; "e67e9a91";
    "515240a7"; "ab76ca46"; "59164d8b"; "113f6f89"; "1568822a"; "d56d1c6c";
    "86059f2d"; "74afba3d"; "acac5eb5"; "5e7a335c"; "5aae3dca"; "bd61e179";
    "ab76ca46"; "1111714f"; "2ae87e65"; "9ccd5e96"; "ab76ca46"; "facb400b";
    "f54c16d4"; "bbcaf8fc"; "579066b2"; "ece892d0"; "04e949ae"; "61e80cec";
    "ab76ca46"; "296743d7"; "3f79ab8d"; "6e91de23"; "434be9f1"; "908d8d42";
    "388ee698"; "967aa490"; "ab76ca46"; "ab76ca46"; "2add23cf"; "ab76ca46";
    "ab76ca46"; "ab76ca46"; "3fcdb861"; "e8689dd0"; "ab76ca46"; "33c374ec";
    "97ac080f"; "7a121053"; "c8f021d4"; "c48e1bcc"; "ff6f39d7"; "60e30dad";
    "ab76ca46"; "d9e5db10"; "8152b175"; "c01feeaa"; "a6c41579"; "ab76ca46";
    "89582d5a"; "ab76ca46"; "1111714f"; "816a9783"; "57665688"; "ab76ca46";
    "ab76ca46"; "a2ef06f4"; "1567334a"; "60ebdc14"; "85aa5cbd"; "b5e11893";
    "949f3b79"; "ab76ca46"; "5f10b9c2"; "f8278207"; "90145197"; "0994d693";
    "ab76ca46"; "ab76ca46"; "de6f70f6"; "e7ba3629"; "9451213e"; "ab76ca46";
    "10ddea4c"; "c03a552f"; "7f5cdf17"; "ab76ca46"; "01a0c7f7"; "ab76ca46";
    "8e6b306e"; "45cb43e0"; "2f865091"; "1c6e994a"; "91f7bc3e"; "1111714f";
    "968925e5"; "21b3c01e"; "a5ecc139"; "ab76ca46"; "d11ca145"; "b6af37f3";
    "ea8ca481"; "39e7c2f6"; "1474223a"; "dd3e385d"; "ab76ca46"; "ab76ca46";
    "1111714f"; "2ff5f5de"; "6b297ead"; "f963d582"; "823ffd85"; "c151a430";
    "8e2fa84f"; "5a700b9e"; "8b5c546b"; "6edccbc5"; "be01ffd4"; "41f06d79";
    "ad55a298"; "ef61e749"; "c40a4739"; "8445e538"; "653b1a93"; "aa964b39";
    "8d12b96b"; "b92da2bc"; "1111714f"; "c706e15a"; "a6d505ef"; "101cc8e6";
    "829616c0"; "a3f76c04"; "ab76ca46"; "02ee6bd5"; "416a286e"; "ab76ca46";
    "144fbfdf"; "25dacde5"; "c727d4aa"; "ab76ca46"; "85249d53"; "0fdb6a1f";
    "9336d1fe"; "267158c1"; "57c7f68e"; "7f169b48"; "5f3c7658"; "807e0150";
    "e797ba22"; "4bdd4144"; "2eb656f7"; "0cf191be"; "1b98e25f"; "f66e8ce4";
    "ac1eab79"; "aa7389e0"; "62487951"; "c9cd4608"; "5c9b2dd0"; "a53779ef";
    "ab76ca46"; "c5ce42de"; "4d5212cf"; "6b4c635e"; "ab76ca46"; "6323a66f";
    "8464f836"; "1bd034a0"; "c36c3a74"; "46c2a911"; "e8c6fc25"; "cae28686";
    "9915aa55"; "dbe07d88"; "fca12007"; "ead0a022"; "ebfb6268"; "ab76ca46";
    "c940de38"; "55ddbacd"; "3246fe1b"; "19ee199e"; "b0328e1b"; "7ef825a4";
    "470966f0"; "462a07d4"; "ab76ca46"; "f3ad56d6"; "099481ed"; "e84a1dcd";
    "c0c28b10"; "aff1ed2a"; "cec128c1"; "154f21c3"; "ed8b0a7a"; "855b749d";
    "c6843a04"; "a37de163"; "8e156159"; "b5027239"; "437c383e"; "c7407780";
    "2ef7fddb"; "a12feba2"; "ab76ca46"; "80df4ce8"; "4f37a93d"; "c2636408";
    "9b5d7dbc"; "ab76ca46"; "804e1b91"; "5d41143d"; "ab76ca46"; "9094ef66";
    "57cf780b"; "ab76ca46"; "88df64cd"; "57c5f4f6"; "bd7634e2"; "53e03540";
    "4ba69ed8"; "32fda62c"; "59f1b3b0"; "1111714f"; "1d0fba0a"; "9381c90f";
    "c697e0ff"; "6f161d10"; "ab76ca46"; "effa1690"; "c36c3a74"; "ab76ca46";
    "57546676"; "4ecd0afc"; "c4999a07"; "dbb79047"; "32758274"; "deb92058";
    "923507b5"; "102bbf1e"; "ab76ca46"; "ca46ceb4"; "4a5a2c7a"; "aa040426";
    "abf762fa"; "bad41d03"; "2f1d0d85"; "361f1710"; "ab76ca46"; "ab76ca46";
    "ab76ca46"; "e013c5fe"; "dc8729fa"; "a42b17f5"; "2612bd2a"; "52e9998c";
    "8f05fff4"; "6d9ddf17"; "4261e79e"; "5a763328"; "3a50f22d"; "ab76ca46";
    "f67bb6e7"; "ab76ca46"; "8975785b"; "93ee049b"; "38b49708"; "1111714f";
    "ab76ca46"; "4362bb81"; "ab76ca46"; "683d111b"; "ab224739"; "1498289f";
    "065787f3"; "d8648706"; "023cae3f"; "7ff35223"; "ab76ca46"; "142a9be7";
    "1111714f"; "823115d4"; "e4e45b04"; "d5ae0ead"; "ab76ca46"; "ab76ca46";
    "cf0c3579"; "ea692728"; "ab76ca46"; "5debf567"; "74976cd3"; "3429b2c5";
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
(* SAT-pass model sets, by brute force.                                *)

let satisfies model clauses =
  List.for_all (List.exists (fun l -> model.(T.var_of l) = T.is_pos l)) clauses

(* Every model of [clauses] over variables [0 .. n - 1]. *)
let all_models n clauses =
  List.filter_map
    (fun bits ->
      let m = Array.init n (fun v -> (bits lsr v) land 1 = 1) in
      if satisfies m clauses then Some m else None)
    (List.init (1 lsl n) Fun.id)

(* The result of the SAT pass against the model set of its input:
   - a refutation only when the input has no model;
   - every fixed literal holds in every model of the input;
   - the solver's stored problem has exactly the models of the input. *)
let check_model_sets name n clauses result =
  let input = all_models n clauses in
  match result with
  | None -> check int_t (name ^ ": unsat input") 0 (List.length input)
  | Some p ->
    List.iter
      (fun l ->
        check bool_t (name ^ ": fixed literal holds in every input model") true
          (List.for_all (fun m -> m.(T.var_of l) = T.is_pos l) input))
      p.fixed;
    let output = all_models n p.cnf in
    check
      Alcotest.(list (array bool))
      (name ^ ": same models") input output

(* Seeded CNFs over at most 10 variables, each run without a budget and
   with two step budgets that run out during the probing pass (one step
   per variable), one in its first half and one in its second half. *)
let test_sat_model_sets () =
  let rand = lcg 1607 in
  let tripped = ref 0 in
  for i = 1 to 200 do
    let n, clauses = random_cnf rand ~max_vars:10 ~empty_every:40 in
    let run budget =
      try presolve_cnf ?budget ~nvars:n clauses
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

(* Presolve [p] as the engine does: on a solver its CNF is loaded into. *)
let run_presolve ?telemetry p =
  let solver =
    Absolver_sat.All_sat.load ~num_vars:(A.Ab_problem.num_bool_vars p)
      (A.Ab_problem.clauses p)
  in
  (A.Preprocess.run ?telemetry p solver, solver)

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
  let pre, _ = run_presolve p in
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
  let pre, solver = run_presolve (unit_def_problem ()) in
  check bool_t "still open" true (pre.A.Preprocess.status = `Open);
  check bool_t "unit fed back" true (pre.A.Preprocess.stats.A.Preprocess.unit_defs >= 1);
  check bool_t "defined var fixed true" true (Cdcl.value solver 1 = T.V_true)

(* Presolve is one pass: the fed-back unit does not send the CNF through
   SAT simplification again. *)
let test_driver_single_pass () =
  let tel = Absolver_telemetry.Telemetry.create () in
  let pre, _ = run_presolve ~telemetry:tel (unit_def_problem ()) in
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
  let pre, _ = run_presolve p in
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
    ("equiv: random problems", `Quick, test_equiv_random_problems);
  ]
