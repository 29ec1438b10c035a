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

let test_hc4_contracts_linear () =
  (* x + y <= 2 with x,y in [0,10]: both shrink to [0,2]. *)
  let b = Box.of_bounds [ (0, I.make 0.0 10.0); (1, I.make 0.0 10.0) ] 2 in
  let rel = { E.expr = E.sub (E.add x y) (E.const (q 2)); op = L.Le; tag = 0 } in
  check bool_t "alive" true (Hc4.revise b rel);
  check bool_t "x narrowed" true ((Box.get b 0).I.hi <= 2.0 +. 1e-9);
  check bool_t "y narrowed" true ((Box.get b 1).I.hi <= 2.0 +. 1e-9)

let test_hc4_empties_contradiction () =
  let b = Box.of_bounds [ (0, I.make 0.0 1.0) ] 1 in
  let rel = { E.expr = E.sub x (E.const (q 5)); op = L.Ge; tag = 0 } in
  check bool_t "contradiction" false (Hc4.revise b rel)

let test_hc4_sqrt_domain () =
  (* sqrt(x) >= 2 forces x >= 4. *)
  let b = Box.of_bounds [ (0, I.make 0.0 100.0) ] 1 in
  let rel = { E.expr = E.sub (E.sqrt x) (E.const (q 2)); op = L.Ge; tag = 0 } in
  check bool_t "alive" true (fst (Hc4.contract b [ rel ]));
  check bool_t "x >= 4" true ((Box.get b 0).I.lo >= 3.999)

let test_hc4_exp_log_inverse () =
  (* exp(x) <= 1 forces x <= 0. *)
  let b = Box.of_bounds [ (0, I.make (-5.0) 5.0) ] 1 in
  let rel = { E.expr = E.sub (E.exp x) (E.const Q.one); op = L.Le; tag = 0 } in
  check bool_t "alive" true (fst (Hc4.contract b [ rel ]));
  check bool_t "x <= 0" true ((Box.get b 0).I.hi <= 1e-9)

let test_hc4_pow_even_projection () =
  (* x^2 <= 4 narrows x to [-2,2]. *)
  let b = Box.of_bounds [ (0, I.make (-10.0) 10.0) ] 1 in
  let rel = { E.expr = E.sub (E.pow x 2) (E.const (q 4)); op = L.Le; tag = 0 } in
  check bool_t "alive" true (fst (Hc4.contract b [ rel ]));
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
    let alive, _ = Hc4.contract b [ r1; r2 ] in
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
  ]
