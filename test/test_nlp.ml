(* Tests for the nonlinear layer: Expr, Box, HC4, Branch_prune. *)

module Q = Absolver_numeric.Rational
module I = Absolver_numeric.Interval
module E = Absolver_nlp.Expr
module Box = Absolver_nlp.Box
module Hc4 = Absolver_nlp.Hc4
module BP = Absolver_nlp.Branch_prune
module L = Absolver_lp.Linexpr

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let q = Q.of_int
let x = E.var 0
let y = E.var 1

(* ------------------------------------------------------------------ *)
(* Expr.                                                               *)

let test_expr_constant_folding () =
  check bool_t "const add" true (E.equal (E.add (E.const (q 2)) (E.const (q 3))) (E.const (q 5)));
  check bool_t "mul by zero" true (E.equal (E.mul (E.const Q.zero) x) (E.const Q.zero));
  check bool_t "mul by one" true (E.equal (E.mul (E.const Q.one) x) x);
  check bool_t "neg neg" true (E.equal (E.neg (E.neg x)) x);
  check bool_t "pow 1" true (E.equal (E.pow x 1) x);
  check bool_t "pow 0" true (E.equal (E.pow x 0) (E.const Q.one));
  check bool_t "x - 0" true (E.equal (E.sub x (E.const Q.zero)) x)

let test_expr_vars_size () =
  let e = E.add (E.mul x y) (E.div y (E.const (q 2))) in
  check bool_t "vars" true (E.vars e = [ 0; 1 ]);
  check bool_t "size positive" true (E.size e > 3)

let test_expr_eval_float () =
  let e = E.add (E.mul x y) (E.const (Q.of_decimal_string "0.5")) in
  let env v = if v = 0 then 2.0 else 3.0 in
  check (Alcotest.float 1e-12) "eval" 6.5 (E.eval_float env e)

let test_expr_eval_exact () =
  let e = E.div (E.add x y) (E.const (q 3)) in
  let env v = if v = 0 then q 1 else q 1 in
  (match E.eval_exact env e with
  | Some v -> check bool_t "exact 2/3" true (Q.equal v (Q.of_ints 2 3))
  | None -> Alcotest.fail "should be exact");
  (* Division by zero -> None. *)
  (match E.eval_exact (fun _ -> Q.zero) (E.div x y) with
  | None -> ()
  | Some _ -> Alcotest.fail "0/0 should be None");
  (* Transcendental -> None. *)
  match E.eval_exact (fun _ -> Q.one) (E.sin x) with
  | None -> ()
  | Some _ -> Alcotest.fail "sin leaves the rationals"

let test_expr_linearize () =
  check bool_t "linear yes" true (E.is_linear (E.add (E.mul (E.const (q 2)) x) y));
  check bool_t "product no" false (E.is_linear (E.mul x y));
  check bool_t "div by const yes" true (E.is_linear (E.div x (E.const (q 2))));
  check bool_t "div by var no" false (E.is_linear (E.div x y));
  check bool_t "sin no" false (E.is_linear (E.sin x));
  match E.linearize (E.add (E.mul (E.const (q 2)) x) (E.const (q 7))) with
  | Some le ->
    check bool_t "coeff" true (Q.equal (L.coeff le 0) (q 2));
    check bool_t "const" true (Q.equal (L.const le) (q 7))
  | None -> Alcotest.fail "should linearize"

let test_expr_negate_rel () =
  let r = { E.expr = x; op = L.Le; tag = 0 } in
  (match E.negate_rel r with
  | [ { E.op = L.Gt; _ } ] -> ()
  | _ -> Alcotest.fail "negate le");
  match E.negate_rel { r with E.op = L.Eq } with
  | [ { E.op = L.Lt; _ }; { E.op = L.Gt; _ } ] -> ()
  | _ -> Alcotest.fail "eq splits"

let test_expr_rel_certificates () =
  let box v = if v = 0 then I.make 1.0 2.0 else I.make 3.0 4.0 in
  (* x*y in [3,8]: certainly >= 2, certainly not <= 2. *)
  let r_ge = { E.expr = E.sub (E.mul x y) (E.const (q 2)); op = L.Ge; tag = 0 } in
  check bool_t "certainly holds" true (E.certainly_holds box r_ge);
  let r_le = { r_ge with E.op = L.Le } in
  check bool_t "certainly violated" true (E.certainly_violated box r_le);
  (* x*y <= 5 is neither certain nor refuted over the box. *)
  let r_mid = { E.expr = E.sub (E.mul x y) (E.const (q 5)); op = L.Le; tag = 0 } in
  check bool_t "uncertain holds" false (E.certainly_holds box r_mid);
  check bool_t "uncertain violated" false (E.certainly_violated box r_mid)

(* ------------------------------------------------------------------ *)
(* Box.                                                                *)

let test_box_ops () =
  let b = Box.of_bounds [ (0, I.make 0.0 4.0); (1, I.make 1.0 2.0) ] 2 in
  check bool_t "not empty" false (Box.is_empty b);
  check int_t "widest" 0 (Box.widest_var b);
  check (Alcotest.float 0.0) "max width" 4.0 (Box.max_width b);
  let m = Box.midpoint b in
  check (Alcotest.float 1e-12) "mid x" 2.0 m.(0);
  Box.set b 1 I.empty;
  check bool_t "now empty" true (Box.is_empty b)

(* ------------------------------------------------------------------ *)
(* HC4.                                                                *)

let hc4_contract ?max_rounds b rels = Hc4.contract ?max_rounds (Hc4.compile rels) b

let test_hc4_contracts_linear () =
  (* x + y <= 2 with x,y in [0,10]: both shrink to [0,2]. *)
  let b = Box.of_bounds [ (0, I.make 0.0 10.0); (1, I.make 0.0 10.0) ] 2 in
  let rel = { E.expr = E.sub (E.add x y) (E.const (q 2)); op = L.Le; tag = 0 } in
  check bool_t "alive" true (fst (hc4_contract ~max_rounds:1 b [ rel ]));
  check bool_t "x narrowed" true ((Box.get b 0).I.hi <= 2.0 +. 1e-9);
  check bool_t "y narrowed" true ((Box.get b 1).I.hi <= 2.0 +. 1e-9)

let test_hc4_empties_contradiction () =
  let b = Box.of_bounds [ (0, I.make 0.0 1.0) ] 1 in
  let rel = { E.expr = E.sub x (E.const (q 5)); op = L.Ge; tag = 0 } in
  check bool_t "contradiction" false (fst (hc4_contract ~max_rounds:1 b [ rel ]))

let test_hc4_sqrt_domain () =
  (* sqrt(x) >= 2 forces x >= 4. *)
  let b = Box.of_bounds [ (0, I.make 0.0 100.0) ] 1 in
  let rel = { E.expr = E.sub (E.sqrt x) (E.const (q 2)); op = L.Ge; tag = 0 } in
  check bool_t "alive" true (fst (hc4_contract b [ rel ]));
  check bool_t "x >= 4" true ((Box.get b 0).I.lo >= 3.999)

let test_hc4_exp_log_inverse () =
  (* exp(x) <= 1 forces x <= 0. *)
  let b = Box.of_bounds [ (0, I.make (-5.0) 5.0) ] 1 in
  let rel = { E.expr = E.sub (E.exp x) (E.const Q.one); op = L.Le; tag = 0 } in
  check bool_t "alive" true (fst (hc4_contract b [ rel ]));
  check bool_t "x <= 0" true ((Box.get b 0).I.hi <= 1e-9)

let test_hc4_pow_even_projection () =
  (* x^2 <= 4 narrows x to [-2,2]. *)
  let b = Box.of_bounds [ (0, I.make (-10.0) 10.0) ] 1 in
  let rel = { E.expr = E.sub (E.pow x 2) (E.const (q 4)); op = L.Le; tag = 0 } in
  check bool_t "alive" true (fst (hc4_contract b [ rel ]));
  let iv = Box.get b 0 in
  check bool_t "narrowed" true (iv.I.lo >= -2.001 && iv.I.hi <= 2.001)

let test_hc4_never_loses_solutions () =
  (* Property: contraction keeps any point that satisfies the relations. *)
  let st = Random.State.make [| 99 |] in
  for _ = 1 to 200 do
    let px = Random.State.float st 4.0 -. 2.0 in
    let py = Random.State.float st 4.0 -. 2.0 in
    (* Build a couple of relations satisfied at (px, py). *)
    let e1 = E.add (E.mul x y) (E.pow x 2) in
    let v1 = E.eval_float (fun v -> if v = 0 then px else py) e1 in
    let r1 =
      { E.expr = E.sub e1 (E.const (Q.of_float (v1 +. 0.5))); op = L.Le; tag = 0 }
    in
    let e2 = E.sub x y in
    let v2 = px -. py in
    let r2 =
      { E.expr = E.sub e2 (E.const (Q.of_float (v2 -. 0.5))); op = L.Ge; tag = 1 }
    in
    let b = Box.of_bounds [ (0, I.make (-2.0) 2.0); (1, I.make (-2.0) 2.0) ] 2 in
    let alive, _ = hc4_contract b [ r1; r2 ] in
    if not (alive && I.mem px (Box.get b 0) && I.mem py (Box.get b 1)) then
      Alcotest.failf "lost solution (%f, %f)" px py
  done

(* ------------------------------------------------------------------ *)
(* Branch and prune.                                                   *)

let solve_bp ?(config = BP.default_config) nvars bounds rels =
  let box = Box.of_bounds bounds nvars in
  fst (BP.solve ~config ~nvars ~box rels)

let test_bp_circle_line_sat () =
  let rels =
    [
      { E.expr = E.sub (E.add (E.pow x 2) (E.pow y 2)) (E.const Q.one); op = L.Le; tag = 0 };
      { E.expr = E.sub (E.const (Q.of_decimal_string "1.2")) (E.add x y); op = L.Le; tag = 1 };
    ]
  in
  match solve_bp 2 [ (0, I.make (-2.0) 2.0); (1, I.make (-2.0) 2.0) ] rels with
  | BP.Sat p | BP.Approx_sat p ->
    check bool_t "witness feasible" true
      (List.for_all (E.holds_float ~tol:1e-6 (fun v -> p.(v))) rels)
  | BP.Unsat | BP.Unknown -> Alcotest.fail "expected sat"

let test_bp_circle_line_unsat () =
  let rels =
    [
      { E.expr = E.sub (E.add (E.pow x 2) (E.pow y 2)) (E.const Q.one); op = L.Le; tag = 0 };
      { E.expr = E.sub (E.const (Q.of_decimal_string "1.5")) (E.add x y); op = L.Le; tag = 1 };
    ]
  in
  match solve_bp 2 [ (0, I.make (-2.0) 2.0); (1, I.make (-2.0) 2.0) ] rels with
  | BP.Unsat -> ()
  | BP.Sat _ | BP.Approx_sat _ | BP.Unknown -> Alcotest.fail "expected unsat"

let test_bp_equality_sqrt2 () =
  let rels = [ { E.expr = E.sub (E.pow x 2) (E.const (q 2)); op = L.Eq; tag = 0 } ] in
  match solve_bp 1 [ (0, I.make 0.0 2.0) ] rels with
  | BP.Sat p | BP.Approx_sat p ->
    check (Alcotest.float 1e-5) "sqrt 2" (Float.sqrt 2.0) p.(0)
  | BP.Unsat | BP.Unknown -> Alcotest.fail "expected a root"

let test_bp_transcendental () =
  (* exp(x) = 3 on [-10, 10]. *)
  let rels = [ { E.expr = E.sub (E.exp x) (E.const (q 3)); op = L.Eq; tag = 0 } ] in
  (match solve_bp 1 [ (0, I.make (-10.0) 10.0) ] rels with
  | BP.Sat p | BP.Approx_sat p -> check (Alcotest.float 1e-5) "ln 3" (Float.log 3.0) p.(0)
  | BP.Unsat | BP.Unknown -> Alcotest.fail "expected a root");
  (* exp(x) = -1: no solution. *)
  let rels = [ { E.expr = E.add (E.exp x) (E.const Q.one); op = L.Eq; tag = 0 } ] in
  match solve_bp 1 [ (0, I.make (-50.0) 50.0) ] rels with
  | BP.Unsat -> ()
  | BP.Sat _ | BP.Approx_sat _ | BP.Unknown -> Alcotest.fail "expected unsat"

let test_bp_node_budget () =
  (* A thin feasible sliver with a tiny budget and no sampling: Unknown. *)
  let rels =
    [
      { E.expr = E.sub (E.mul x y) (E.const Q.one); op = L.Ge; tag = 0 };
      { E.expr = E.sub (E.mul x y) (Q.of_decimal_string "1.0000001" |> E.const); op = L.Le; tag = 1 };
    ]
  in
  let config =
    { BP.default_config with BP.max_nodes = 3; samples_per_node = 0; root_samples = 0 }
  in
  match solve_bp ~config 2 [ (0, I.make 0.5 2.0); (1, I.make 0.5 2.0) ] rels with
  | BP.Unknown | BP.Approx_sat _ -> ()
  | BP.Sat _ -> () (* a certificate this early is fine too *)
  | BP.Unsat -> Alcotest.fail "must not prove unsat within 3 nodes"

let test_bp_sat_claims_verified () =
  (* Property-style: on random conjunctions of inequalities over a box,
     any Sat answer's witness must satisfy everything rigorously. *)
  let st = Random.State.make [| 5 |] in
  for _ = 1 to 50 do
    let mk_rel tag =
      let e =
        match Random.State.int st 4 with
        | 0 -> E.add (E.mul x y) (E.neg (E.pow x 2))
        | 1 -> E.sub (E.pow x 2) (E.mul (E.const (q 2)) y)
        | 2 -> E.add (E.sin x) y
        | _ -> E.div x (E.add (E.pow y 2) (E.const Q.one))
      in
      let c = Q.of_float (Random.State.float st 4.0 -. 2.0) in
      let op = if Random.State.bool st then L.Le else L.Ge in
      { E.expr = E.sub e (E.const c); op; tag }
    in
    let rels = List.init (1 + Random.State.int st 3) mk_rel in
    let config = { BP.default_config with BP.max_nodes = 2000 } in
    match solve_bp ~config 2 [ (0, I.make (-3.0) 3.0); (1, I.make (-3.0) 3.0) ] rels with
    | BP.Sat p ->
      if not (List.for_all (fun r -> E.certainly_holds (Box.point_env p) r) rels)
      then Alcotest.fail "rigorous witness fails"
    | BP.Approx_sat p ->
      if not (List.for_all (E.holds_float ~tol:1e-5 (fun v -> p.(v))) rels) then
        Alcotest.fail "approximate witness fails"
    | BP.Unsat | BP.Unknown -> ()
  done

(* ------------------------------------------------------------------ *)
(* Bit-identity pins: contraction and search results, digested.        *)

module A = Absolver_core
module M = Absolver_model
module Icp = Absolver_preprocess.Icp

(* Appends one float's exact bit pattern. *)
let add_bits buf x = Printf.bprintf buf "%Lx " (Int64.bits_of_float x)

let add_box buf b =
  Array.iter
    (fun (iv : I.t) ->
      add_bits buf iv.I.lo;
      add_bits buf iv.I.hi)
    b

(* Runs [f], recording an escaping exception instead of its result: the
   pins cover the corner cases that raise as well. *)
let guarded buf f =
  match f () with
  | () -> ()
  | exception e -> Printf.bprintf buf "exn %s" (Printexc.to_string e)

let digest_contract buf box rels =
  guarded buf (fun () ->
      let b = Box.copy box in
      let alive, revisions = hc4_contract b rels in
      Printf.bprintf buf "hc4 %b %d " alive revisions;
      add_box buf b);
  guarded buf (fun () ->
      let r, revisions = Icp.contract ~box rels in
      Printf.bprintf buf "|icp %d " revisions;
      match r with
      | `Empty -> Buffer.add_string buf "empty"
      | `Box (b, narrowed) ->
        Printf.bprintf buf "%d " narrowed;
        add_box buf b)

let digest_bp buf ~config ~nvars box rels =
  guarded buf (fun () ->
      let outcome, (st : BP.stats) = BP.solve ~config ~nvars ~box rels in
      (match outcome with
      | BP.Sat p ->
        Buffer.add_string buf "sat ";
        Array.iter (add_bits buf) p
      | BP.Approx_sat p ->
        Buffer.add_string buf "approx ";
        Array.iter (add_bits buf) p
      | BP.Unsat -> Buffer.add_string buf "unsat"
      | BP.Unknown -> Buffer.add_string buf "unknown");
      Printf.bprintf buf "|%d %d %d %d" st.nodes st.prunings st.max_depth
        st.revisions)

let hex buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* The nonlinear Table 1 problems besides steering, as the extended
   DIMACS the front end reads. *)
let table1_texts =
  [
    ( "esat_n11_m8_nonlinear",
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
|} );
    ( "nonlinear_unsat",
      {|p cnf 1 1
1 0
c def real 1 x * x + y * y <= 1
c def real 1 x * y >= 2
c bound x -10 10
c bound y -10 10
|} );
    ( "div_operator",
      {|p cnf 1 1
1 0
c def real 1 a >= 1
c def real 1 a <= 5
c def real 1 b >= 2
c def real 1 b <= 6
c def real 1 a / b >= 0.5
c bound a -100 100
c bound b -100 100
|} );
    ( "sphere_cap_unsat",
      {|p cnf 1 1
1 0
c def real 1 x * x + y * y + z * z <= 1
c def real 1 x + y + z >= 2
c bound x -2 2
c bound y -2 2
c bound z -2 2
|} );
  ]

let table1_problems () =
  ("steering", M.Steering.problem ())
  :: List.map
       (fun (name, text) ->
         match A.Dimacs_ext.parse_string text with
         | Ok p -> (name, p)
         | Error e -> Alcotest.failf "%s: %s" name e)
       table1_texts

(* A problem's relations over its declared bounds: each definition, its
   negations, the definitions of each Boolean variable together, those of
   two neighbouring variables, and all of them. *)
let problem_corpus p =
  let nvars = A.Ab_problem.num_arith_vars p in
  let box = Box.create nvars in
  List.iter
    (fun (v, (lo, hi)) -> Box.set box v (I.of_rational_bounds lo hi))
    (A.Ab_problem.bounds p);
  let defs = A.Ab_problem.defs p in
  let rels = List.map (fun d -> d.A.Ab_problem.rel) defs in
  let by_var =
    List.sort_uniq compare (List.map (fun d -> d.A.Ab_problem.bool_var) defs)
    |> List.map (fun v ->
           List.filter_map
             (fun d ->
               if d.A.Ab_problem.bool_var = v then Some d.A.Ab_problem.rel
               else None)
             defs)
  in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a @ b) :: pairs rest
    | _ -> []
  in
  let sets =
    List.map (fun r -> [ r ]) rels
    @ List.map (fun r -> E.negate_rel r) rels
    @ by_var @ pairs by_var @ [ rels ]
  in
  (nvars, box, sets)

let pin_config =
  { BP.default_config with BP.max_nodes = 150; samples_per_node = 2; root_samples = 16 }

let table1_digests () =
  List.map
    (fun (name, p) ->
      let nvars, box, sets = problem_corpus p in
      let c = Buffer.create 4096 and s = Buffer.create 4096 in
      List.iter
        (fun rels ->
          digest_contract c box rels;
          Buffer.add_char c '\n';
          digest_bp s ~config:pin_config ~nvars box rels;
          Buffer.add_char s '\n')
        sets;
      (name, hex c, hex s))
    (table1_problems ())

(* Random relations over three variables using all 13 constructors (raw,
   so constant subtrees survive), with negative and even exponents, over
   boxes mixing empty, point, unbounded, half-bounded and zero-straddling
   intervals. *)
let lcg seed =
  let state = ref seed in
  fun m ->
    state := ((0x5DEECE66D * !state) + 0xB) land 0xFFFF_FFFF_FFFF;
    (!state lsr 17) mod m

let random_const rand =
  match rand 4 with
  | 0 -> Q.zero
  | 1 -> Q.of_int (rand 9 - 4)
  | 2 -> Q.of_ints (rand 41 - 20) (1 + rand 7)
  | _ -> Q.of_decimal_string (Printf.sprintf "%d.%d" (rand 5 - 2) (rand 10))

let rec random_expr rand depth =
  if depth = 0 || rand 5 = 0 then
    if rand 3 = 0 then E.Const (random_const rand) else E.Var (rand 3)
  else
    let sub () = random_expr rand (depth - 1) in
    match rand 16 with
    | 0 -> E.Neg (sub ())
    | 1 | 2 | 3 -> E.Add (sub (), sub ())
    | 4 | 5 -> E.Sub (sub (), sub ())
    | 6 | 7 | 8 -> E.Mul (sub (), sub ())
    | 9 -> E.Div (sub (), sub ())
    | 10 | 11 -> E.Pow (sub (), rand 7 - 2)
    | 12 -> E.Sqrt (sub ())
    | 13 -> E.Exp (sub ())
    | 14 -> E.Log (sub ())
    | _ -> if rand 2 = 0 then E.Sin (sub ()) else E.Cos (sub ())

let random_op rand = [| L.Le; L.Lt; L.Ge; L.Gt; L.Eq |].(rand 5)

let random_interval rand =
  let f () = float_of_int (rand 41 - 20) /. float_of_int (1 + rand 4) in
  match rand 9 with
  | 0 -> I.empty
  | 1 -> I.of_float (f ())
  | 2 -> I.entire
  | 3 -> I.make (f ()) Float.infinity
  | 4 -> I.make Float.neg_infinity (f ())
  | 5 -> I.make (-.float_of_int (1 + rand 9)) (float_of_int (1 + rand 9))
  | _ ->
    let a = f () and b = f () in
    I.make (Float.min a b) (Float.max a b)

let random_case rand =
  let box = Array.init 3 (fun _ -> if rand 12 = 0 then I.empty else random_interval rand) in
  (* Empty intervals only now and then, so most boxes get searched. *)
  let box = Array.map (fun iv -> if I.is_empty iv && rand 2 = 0 then I.entire else iv) box in
  let rel tag = { E.expr = random_expr rand 4; op = random_op rand; tag } in
  let rels = if rand 3 = 0 then [ rel 0; rel 1 ] else [ rel 0 ] in
  (box, rels)

let random_digests () =
  let rand = lcg 20070418 in
  List.init 300 (fun i ->
      let box, rels = random_case rand in
      let config =
        if i mod 5 = 4 then { pin_config with BP.max_nodes = 40; use_hc4 = false }
        else { pin_config with BP.max_nodes = 40 }
      in
      let buf = Buffer.create 1024 in
      digest_contract buf box rels;
      Buffer.add_char buf '\n';
      digest_bp buf ~config ~nvars:3 box rels;
      String.sub (hex buf) 0 8)

(* Digests computed with the tree-walking HC4 of commit a73bba9, before
   the tape: contraction and search must reproduce them bit for bit. *)
let table1_pins =
  [
    ("steering", "737ea18c81b581ca9c699ce08a53c961", "1842592c456e29831ede9014e0064023");
    ("esat_n11_m8_nonlinear", "c461f4fac44e7484a5ed331a2712bf2d", "3735de12446373ce6de9d1bf82a2da07");
    ("nonlinear_unsat", "27f5a662576e01aa349350e22ccb8103", "9007bb791f1bcaf910a298ad2510d14f");
    ("div_operator", "05ddf306fc37c3410736cfe81c916051", "d330acfe6171058bb85489b23cd683aa");
    ("sphere_cap_unsat", "bde1776547080e473dc1accc87778262", "170f683cd945ae5dd614f800c6ecee7c");
  ]

(* Same commit, except the 20 relations with a zero constant (5, 10,
   13, 19, 45, 65, 134, 174, 182, 184, 192, 204, 216, 233, 238, 243, 249,
   260, 285 and 290): the constant 0 now encloses as the point [0, 0]
   rather than two ulps either side, so dividing by it, [log 0] and its
   negative powers are empty. With HC4, six searches now end unsat at
   the root (5, 13, 65, 290; 238, which raised on a nan endpoint; 243,
   whose witness made [log 0] infinite) and five [0 <= 0]-like ones are
   certified at the root instead of approximated after 41 nodes.
   Without HC4 (every fifth) no box is pruned, so 174 and 184, which had
   accepted a witness at which [log 0] or [0^-2] has no real value
   (DESIGN §3), end unknown after 41 nodes. The rest keep their
   verdicts. Relation 19 had already been re-pinned for such a
   witness. *)
let random_pins =
  [|
    "00e6dabd"; "b382ee7a"; "fb1fded8"; "0a557faa"; "1493554b"; "b7e691b1";
    "16d75d99"; "3b84b2c5"; "a6561601"; "5d4d7d4c"; "efafc420"; "3ff8863d";
    "2eb4817f"; "0a9151b9"; "e8bdb2e0"; "f733b08a"; "4d2e506f"; "7ea071a4";
    "d502e1a0"; "70c4074f"; "877697ca"; "ef1df232"; "9b5b07fe"; "25999d12";
    "68db6c87"; "cd7a8972"; "458d89ed"; "e506c15b"; "08e985f9"; "d2dc1f52";
    "c1dd7217"; "5f1567b5"; "2a254085"; "411ae45f"; "61c23354"; "cd2a9e31";
    "0a320ebd"; "e680fc08"; "de118620"; "9139bf88"; "95097ded"; "1517c3ac";
    "74c8f94c"; "23031eb3"; "9550d4d6"; "7297e91f"; "62482901"; "421c9ff8";
    "0477c63a"; "0b8c80b5"; "dcce5626"; "42422fe5"; "a5146946"; "8beb90fb";
    "319ff733"; "1fa16093"; "dbe9021b"; "bf1ef17e"; "2f3f0ee5"; "3161a709";
    "37b97a80"; "fa6cf6eb"; "b831f16e"; "b56e33af"; "0b3f1b4a"; "e9f547b9";
    "32173020"; "a5ff9030"; "1bb51590"; "b9285038"; "b51f9684"; "785455c4";
    "634d5748"; "668ecc98"; "8571aa1d"; "be6a2392"; "f7bba2ef"; "8168fa70";
    "cb0b90a0"; "376f71c7"; "7520ae76"; "199cb45c"; "4bfc58ec"; "9c0bb818";
    "05bb9996"; "78e8f402"; "918b6e43"; "49d94346"; "b17225bc"; "d1a2316d";
    "2df39e52"; "84abab23"; "a23c8bf1"; "41732f5c"; "c8fec507"; "ca51f0b9";
    "b5252e46"; "c8ec01ae"; "d5a3b22c"; "c6dc225b"; "e1b88b65"; "76976055";
    "b410ed13"; "3fe65a6a"; "cb75baad"; "732b9a14"; "ba419b3f"; "4b7fdf1b";
    "cfb6a3b4"; "47fb8c61"; "d4c11e73"; "4b370d97"; "cbd9172a"; "b3c6e045";
    "19e435ba"; "41cdba41"; "3d5211cd"; "2f5c309e"; "4ea55863"; "ea16ad48";
    "34014ac5"; "c788d7dc"; "dee7143a"; "2d5b5ede"; "d3d2541f"; "b0073bbb";
    "3ed07466"; "3741863b"; "ccef91e3"; "86a6d918"; "459bd507"; "5ac31701";
    "dbe9021b"; "5bf85342"; "02e93724"; "7e04fa61"; "4333987a"; "e475bad0";
    "e0d136f0"; "e8f70f4b"; "b484ab9e"; "803c43cd"; "2f6be34b"; "470a96c0";
    "5caa0bc0"; "a4c77422"; "c74db155"; "b9bcee4e"; "63eaa8ec"; "aeaae91e";
    "4769ec71"; "56b35179"; "20c0b75b"; "d69e4610"; "605796ae"; "f1bf7302";
    "70395b3f"; "22576b90"; "b2018422"; "42a79661"; "f54a2934"; "f877eac4";
    "0d3344f5"; "bb7c8e6f"; "981b1c55"; "1d6ea08c"; "ead102a6"; "9f3db6f4";
    "fc32d07e"; "ec67e0ca"; "ab8d6d0e"; "2bec2c69"; "f159a3bf"; "77412941";
    "2414cd8b"; "49fed869"; "dbe9021b"; "1dad5bfd"; "4b0bff76"; "a3674a61";
    "67be38a2"; "4f7421ab"; "06df1fb3"; "4094e058"; "c408622b"; "7aec36be";
    "d69e8d03"; "18af7cda"; "c7b8c188"; "731973cf"; "147ae09a"; "60d1e40f";
    "f2282e02"; "413d49fa"; "ac1a9f4c"; "cf14f0a8"; "99cd85cb"; "aba78111";
    "49de4f24"; "b48f1ed2"; "79533aec"; "ed5bb8ce"; "0c39b287"; "78eb1719";
    "00bdfa5f"; "b5f081b9"; "dca6362c"; "63fdcc61"; "b1c0e7f3"; "827bd218";
    "66539865"; "0c28ef1a"; "7df9c024"; "5b8a5116"; "6878cb05"; "f5551409";
    "8d8dc145"; "31369b06"; "7d9c1fcd"; "aa7384d6"; "6a8f06a7"; "135a0cf5";
    "54e18ad5"; "bb9823fa"; "9947dec1"; "241f2159"; "d18237ec"; "3463f78a";
    "c508202a"; "aecb2286"; "fd8459ef"; "ab1a977f"; "0b2ba9d3"; "cd6d5277";
    "11f231fe"; "075d14f6"; "ce30da75"; "6a13b33f"; "eeda822e"; "cc9c068a";
    "d2e0fd80"; "384c854c"; "ccd8f829"; "46349828"; "e3c9f7db"; "315b22c3";
    "20a4b82b"; "2d13d6a0"; "58e23208"; "80128178"; "26e92bea"; "e4f0fd25";
    "4b68fc19"; "44ccab52"; "1a953ccd"; "15aece5f"; "3bf1ce3c"; "c676efb9";
    "215dfb0d"; "4d4358b6"; "7c64e842"; "96ac147a"; "b06bbc49"; "6f917a20";
    "85da4631"; "f01af801"; "c73a10c7"; "384b5fd8"; "da8c4c28"; "eca3a8a7";
    "790126a9"; "5ad1a958"; "3463f78a"; "7ff1ecd8"; "f16ebb5e"; "ba419b3f";
    "8716dc29"; "e4474ee1"; "5da45538"; "392c0cd4"; "00ef655e"; "479b42d6";
    "6b28c6d0"; "b3f52f20"; "663e27e2"; "0567c760"; "b3c9679a"; "f4555cf2";
    "2b2e6efd"; "50648457"; "72c3521e"; "b8ac4cb1"; "a0ff2076"; "c4bb3d44";
    "2591791d"; "aca2559d"; "c48574ac"; "1c564d5d"; "a1a3e789"; "abc587cb";
  |]

(* ------------------------------------------------------------------ *)
(* Tape against tree, bit for bit (QCheck).                            *)

let random_coord rand =
  match rand 6 with
  | 0 -> 0.0
  | 1 -> -0.0
  | 2 -> float_of_int (rand 2001 - 1000) *. 1e300
  | _ -> float_of_int (rand 81 - 40) /. float_of_int (1 + rand 7)

(* A box and its relations (the generator of the pinned corpus) and a
   point, drawn from QCheck's state. *)
let arb_tape_case =
  QCheck.make
    ~print:(fun (box, rels, p) ->
      Format.asprintf "%a | %s | (%s)" Box.pp box
        (String.concat "; "
           (List.map (fun r -> Format.asprintf "%a" (E.pp_rel ()) r) rels))
        (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%h") p))))
    (fun st ->
      let rand n = Random.State.int st n in
      let box, rels = random_case rand in
      (box, rels, Array.init 3 (fun _ -> random_coord rand)))

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_interval (a : I.t) (b : I.t) = same_float a.I.lo b.I.lo && same_float a.I.hi b.I.hi

let prop_tape_forward =
  QCheck.Test.make ~name:"tape enclosure = Expr.eval_interval" ~count:1000 arb_tape_case
    (fun (box, rels, _) ->
      let t = Hc4.compile rels and s = Hc4.scratch () in
      List.for_all Fun.id
        (List.mapi
           (fun j r ->
             same_interval (Hc4.enclosure t s box j)
               (E.eval_interval (Box.env box) r.E.expr))
           rels))

let prop_tape_float =
  QCheck.Test.make ~name:"tape value = Expr.eval_float" ~count:1000 arb_tape_case
    (fun (_, rels, p) ->
      let t = Hc4.compile rels and s = Hc4.scratch () in
      List.for_all Fun.id
        (List.mapi
           (fun j r -> same_float (Hc4.value_at t s p j) (E.eval_float (fun v -> p.(v)) r.E.expr))
           rels))

let prop_tape_certificates =
  QCheck.Test.make ~name:"tape certificates = Expr certificates" ~count:1000
    arb_tape_case (fun (box, rels, p) ->
      let t = Hc4.compile rels and s = Hc4.scratch () in
      Hc4.certified_box t s box = List.for_all (E.certainly_holds (Box.env box)) rels
      && Hc4.certified_at t s p
         = List.for_all (E.certainly_holds (Box.point_env p)) rels
      && List.for_all
           (fun tol ->
             Hc4.feasible_at ~tol t s p
             = List.for_all (E.holds_float ~tol (fun v -> p.(v))) rels)
           [ 0.0; 1e-9; 0.5 ])

let test_identity_table1 () =
  List.iter2
    (fun (name, contract, search) (name', contract', search') ->
      check Alcotest.string "problem order" name name';
      check Alcotest.string (name ^ ": contraction digest") contract contract';
      check Alcotest.string (name ^ ": search digest") search search')
    table1_pins (table1_digests ())

let test_identity_random () =
  List.iteri
    (fun i got ->
      check Alcotest.string
        (Printf.sprintf "random relation %d: digest" i)
        random_pins.(i) got)
    (random_digests ())

let suite =
  [
    ("expr constant folding", `Quick, test_expr_constant_folding);
    ("expr vars and size", `Quick, test_expr_vars_size);
    ("expr eval float", `Quick, test_expr_eval_float);
    ("expr eval exact", `Quick, test_expr_eval_exact);
    ("expr linearize", `Quick, test_expr_linearize);
    ("expr negate_rel", `Quick, test_expr_negate_rel);
    ("expr interval certificates", `Quick, test_expr_rel_certificates);
    ("box operations", `Quick, test_box_ops);
    ("hc4 contracts linear", `Quick, test_hc4_contracts_linear);
    ("hc4 detects contradiction", `Quick, test_hc4_empties_contradiction);
    ("hc4 sqrt backward", `Quick, test_hc4_sqrt_domain);
    ("hc4 exp/log backward", `Quick, test_hc4_exp_log_inverse);
    ("hc4 even power backward", `Quick, test_hc4_pow_even_projection);
    ("hc4 preserves solutions", `Quick, test_hc4_never_loses_solutions);
    ("branch-prune circle/line sat", `Quick, test_bp_circle_line_sat);
    ("branch-prune circle/line unsat", `Quick, test_bp_circle_line_unsat);
    ("branch-prune sqrt2 equality", `Quick, test_bp_equality_sqrt2);
    ("branch-prune transcendental", `Quick, test_bp_transcendental);
    ("branch-prune node budget", `Quick, test_bp_node_budget);
    ("branch-prune witnesses verified", `Quick, test_bp_sat_claims_verified);
    ("identity: Table 1 relations", `Quick, test_identity_table1);
    ("identity: random relations", `Quick, test_identity_random);
    QCheck_alcotest.to_alcotest prop_tape_forward;
    QCheck_alcotest.to_alcotest prop_tape_float;
    QCheck_alcotest.to_alcotest prop_tape_certificates;
  ]
