(* Tests for the linear-arithmetic layer: Linexpr, Simplex, Conflict. *)

module Q = Absolver_numeric.Rational
module DR = Absolver_numeric.Delta_rational
module L = Absolver_lp.Linexpr
module S = Absolver_lp.Simplex
module Cf = Absolver_lp.Conflict

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let q = Q.of_int
let cons expr op tag = { L.expr; op; tag }

(* ------------------------------------------------------------------ *)
(* Linexpr.                                                            *)

let test_linexpr_construction () =
  let e = L.of_list [ (q 2, 0); (q 3, 1); (q (-2), 0) ] (q 5) in
  check bool_t "coeff x0 folded to 0" true (Q.is_zero (L.coeff e 0));
  check bool_t "coeff x1" true (Q.equal (L.coeff e 1) (q 3));
  check bool_t "const" true (Q.equal (L.const e) (q 5));
  check bool_t "vars" true (L.vars e = [ 1 ])

let test_linexpr_arith () =
  let a = L.of_list [ (q 1, 0); (q 2, 1) ] (q 1) in
  let b = L.of_list [ (q 3, 0); (q (-2), 1) ] (q 2) in
  let s = L.add a b in
  check bool_t "add x0" true (Q.equal (L.coeff s 0) (q 4));
  check bool_t "add x1 cancels" true (Q.is_zero (L.coeff s 1));
  check bool_t "add const" true (Q.equal (L.const s) (q 3));
  let d = L.scale (q 2) a in
  check bool_t "scale" true (Q.equal (L.coeff d 1) (q 4));
  check bool_t "sub self zero" true (L.equal (L.sub a a) (L.constant Q.zero))

let test_linexpr_eval_holds () =
  let e = L.of_list [ (q 2, 0); (q 1, 1) ] (q (-10)) in
  let env v = if v = 0 then q 3 else q 4 in
  check bool_t "eval" true (Q.is_zero (L.eval env e));
  check bool_t "holds eq" true (L.holds env (cons e L.Eq 0));
  check bool_t "holds le" true (L.holds env (cons e L.Le 0));
  check bool_t "not holds lt" false (L.holds env (cons e L.Lt 0))

let test_negate_op () =
  check bool_t "le -> gt" true (L.negate_op L.Le = L.Gt);
  check bool_t "lt -> ge" true (L.negate_op L.Lt = L.Ge);
  Alcotest.check_raises "eq has no negation"
    (Invalid_argument "Linexpr.negate_op: Eq splits into Lt/Gt") (fun () ->
      ignore (L.negate_op L.Eq))

(* ------------------------------------------------------------------ *)
(* Simplex one-shot.                                                   *)

let solve cs = fst (S.solve_system cs)

let test_simplex_simple_sat () =
  (* x >= 1, x <= 3, x + y = 5, y >= 3  ->  x = 2..?, actually x in [1,2] *)
  let x = 0 and y = 1 in
  let cs =
    [
      cons (L.of_list [ (q 1, x) ] (q (-1))) L.Ge 0;
      cons (L.of_list [ (q 1, x) ] (q (-3))) L.Le 1;
      cons (L.of_list [ (q 1, x); (q 1, y) ] (q (-5))) L.Eq 2;
      cons (L.of_list [ (q 1, y) ] (q (-3))) L.Ge 3;
    ]
  in
  match solve cs with
  | S.Unsat _ | S.Unknown _ -> Alcotest.fail "expected sat"
  | S.Sat model ->
    let env v = Option.value ~default:Q.zero (List.assoc_opt v model) in
    check bool_t "all hold" true (List.for_all (L.holds env) cs)

let test_simplex_simple_unsat () =
  let x = 0 in
  let cs =
    [
      cons (L.of_list [ (q 1, x) ] (q (-5))) L.Ge 0;
      cons (L.of_list [ (q 1, x) ] (q (-3))) L.Le 1;
    ]
  in
  match solve cs with
  | S.Sat _ | S.Unknown _ -> Alcotest.fail "expected unsat"
  | S.Unsat tags -> check bool_t "core is {0,1}" true (List.sort compare tags = [ 0; 1 ])

let test_simplex_strict () =
  (* x > 0 and x < 1 is satisfiable with exact strictness. *)
  let x = 0 in
  let cs =
    [
      cons (L.of_list [ (q 1, x) ] Q.zero) L.Gt 0;
      cons (L.of_list [ (q 1, x) ] (Q.neg Q.one)) L.Lt 1;
    ]
  in
  (match solve cs with
  | S.Unsat _ | S.Unknown _ -> Alcotest.fail "expected sat"
  | S.Sat model ->
    let v = List.assoc 0 model in
    check bool_t "0 < x < 1" true (Q.gt v Q.zero && Q.lt v Q.one));
  (* x > 0 and x < 0 is not. *)
  let cs2 =
    [
      cons (L.of_list [ (q 1, x) ] Q.zero) L.Gt 0;
      cons (L.of_list [ (q 1, x) ] Q.zero) L.Lt 1;
    ]
  in
  match solve cs2 with
  | S.Sat _ | S.Unknown _ -> Alcotest.fail "expected unsat"
  | S.Unsat _ -> ()

let test_simplex_strict_boundary () =
  (* x >= 3 and x < 3: infeasible only because of strictness. *)
  let cs =
    [
      cons (L.of_list [ (q 1, 0) ] (q (-3))) L.Ge 0;
      cons (L.of_list [ (q 1, 0) ] (q (-3))) L.Lt 1;
    ]
  in
  match solve cs with
  | S.Sat _ | S.Unknown _ -> Alcotest.fail "expected unsat (strictness)"
  | S.Unsat _ -> ()

let test_simplex_constant_constraints () =
  (* Constraints with no variables. *)
  (match solve [ cons (L.constant (q (-1))) L.Le 0 ] with
  | S.Sat _ -> ()
  | S.Unsat _ | S.Unknown _ -> Alcotest.fail "-1 <= 0 should hold");
  match solve [ cons (L.constant (q 1)) L.Le 7 ] with
  | S.Sat _ | S.Unknown _ -> Alcotest.fail "1 <= 0 should fail"
  | S.Unsat tags -> check bool_t "tag" true (tags = [ 7 ])

let test_simplex_shared_slack () =
  (* The same expression under two bounds shares one slack variable. *)
  let e = L.of_list [ (q 1, 0); (q 1, 1) ] Q.zero in
  let t = S.create () in
  let v1 = S.define t e in
  let v2 = S.define t e in
  check int_t "shared" v1 v2

let test_simplex_incremental_push_pop () =
  let t = S.create () in
  let x = S.new_var t in
  let ge c tag = S.assert_bound t ~tag x S.Lower (DR.of_rational (q c)) in
  let le c tag = S.assert_bound t ~tag x S.Upper (DR.of_rational (q c)) in
  check bool_t "x >= 0" true (ge 0 0 = S.Feasible);
  S.push t;
  check bool_t "x <= -1 conflicts" true
    (match le (-1) 1 with S.Infeasible _ -> true | S.Feasible -> false);
  S.pop t;
  check bool_t "after pop x <= 5 fine" true (le 5 2 = S.Feasible);
  check bool_t "check feasible" true (S.check t = S.Feasible)

let test_simplex_pop_restores () =
  let t = S.create () in
  let x = S.new_var t in
  ignore (S.assert_bound t ~tag:0 x S.Lower (DR.of_rational (q 0)));
  S.push t;
  ignore (S.assert_bound t ~tag:1 x S.Lower (DR.of_rational (q 10)));
  check bool_t "tight feasible" true (S.check t = S.Feasible);
  S.pop t;
  (* After pop the old bound is back: x <= 5 must be feasible again. *)
  check bool_t "x <= 5 after pop" true
    (S.assert_bound t ~tag:2 x S.Upper (DR.of_rational (q 5)) = S.Feasible);
  check bool_t "check" true (S.check t = S.Feasible)

let test_simplex_integer_bb () =
  (* 1/2 <= x <= 3/2, x integer -> x = 1. *)
  let cs =
    [
      cons (L.of_list [ (q 1, 0) ] (Q.of_ints (-1) 2)) L.Ge 0;
      cons (L.of_list [ (q 1, 0) ] (Q.of_ints (-3) 2)) L.Le 1;
    ]
  in
  (match fst (S.solve_system ~int_vars:[ 0 ] cs) with
  | S.Sat [ (0, v) ] -> check bool_t "x = 1" true (Q.equal v Q.one)
  | S.Sat _ | S.Unsat _ | S.Unknown _ -> Alcotest.fail "expected x=1");
  (* 2x = 1 has no integer solution. *)
  let cs2 = [ cons (L.of_list [ (q 2, 0) ] (Q.neg Q.one)) L.Eq 0 ] in
  match fst (S.solve_system ~int_vars:[ 0 ] cs2) with
  | S.Sat _ | S.Unknown _ -> Alcotest.fail "2x=1 has no integer solution"
  | S.Unsat _ -> ()

let test_simplex_big_coefficients () =
  (* Exactness across large coefficients (would overflow machine ints). *)
  let big = Q.of_decimal_string "123456789123456789" in
  let cs =
    [
      cons (L.of_list [ (big, 0) ] (Q.neg (Q.mul big (q 3)))) L.Eq 0;
      cons (L.of_list [ (q 1, 0) ] (q (-3))) L.Eq 1;
    ]
  in
  match solve cs with
  | S.Sat model -> check bool_t "x=3" true (Q.equal (List.assoc 0 model) (q 3))
  | S.Unsat _ | S.Unknown _ -> Alcotest.fail "expected consistent"

(* Property: planted-solution systems are found satisfiable with valid
   models; reported cores re-verify as infeasible. *)

let arb_system =
  let open QCheck in
  let arb_q = map (fun (n, d) -> Q.of_ints n (1 + abs d)) (pair (int_range (-8) 8) (int_range 0 4)) in
  let arb_point = list_of_size (Gen.return 4) arb_q in
  let arb_rows = list_of_size (Gen.int_range 1 10) (pair (list_of_size (Gen.int_range 1 3) (pair arb_q (int_range 0 3))) (int_range 0 4)) in
  pair arb_point arb_rows

let prop_planted_sat =
  QCheck.Test.make ~name:"simplex planted solutions" ~count:300 arb_system
    (fun (point, rows) ->
      let point = Array.of_list point in
      let cs =
        List.mapi
          (fun tag (terms, opsel) ->
            let e = L.of_list terms Q.zero in
            let v = L.eval (fun i -> point.(i)) e in
            let op, const =
              match opsel mod 5 with
              | 0 -> (L.Le, Q.neg v)
              | 1 -> (L.Ge, Q.neg v)
              | 2 -> (L.Lt, Q.neg (Q.add v Q.one))
              | 3 -> (L.Gt, Q.neg (Q.sub v Q.one))
              | _ -> (L.Eq, Q.neg v)
            in
            cons (L.set_const e const) op tag)
          rows
      in
      match solve cs with
      | S.Unsat _ | S.Unknown _ -> false
      | S.Sat model ->
        let env v = Option.value ~default:Q.zero (List.assoc_opt v model) in
        List.for_all (L.holds env) cs)

let prop_unsat_core_infeasible =
  QCheck.Test.make ~name:"simplex cores re-verify" ~count:300 arb_system
    (fun (_, rows) ->
      let cs =
        List.mapi
          (fun tag (terms, opsel) ->
            let e = L.of_list terms (Q.of_int (opsel - 2)) in
            let op =
              match opsel mod 5 with
              | 0 -> L.Le
              | 1 -> L.Ge
              | 2 -> L.Lt
              | 3 -> L.Gt
              | _ -> L.Eq
            in
            cons e op tag)
          rows
      in
      match solve cs with
      | S.Unknown _ -> false
      | S.Sat model ->
        let env v = Option.value ~default:Q.zero (List.assoc_opt v model) in
        List.for_all (L.holds env) cs
      | S.Unsat tags ->
        let core = List.filter (fun (c : L.cons) -> List.mem c.L.tag tags) cs in
        Cf.is_infeasible core)

(* ------------------------------------------------------------------ *)
(* Conflict minimization.                                              *)

let test_conflict_minimize () =
  (* {x>=5, x<=3, y>=0}: minimal core is the first two. *)
  let cs =
    [
      cons (L.of_list [ (q 1, 0) ] (q (-5))) L.Ge 0;
      cons (L.of_list [ (q 1, 0) ] (q (-3))) L.Le 1;
      cons (L.of_list [ (q 1, 1) ] Q.zero) L.Ge 2;
    ]
  in
  let core = Cf.minimize cs in
  check int_t "core size" 2 (List.length core);
  check bool_t "core tags" true
    (List.sort compare (List.map (fun (c : L.cons) -> c.L.tag) core) = [ 0; 1 ]);
  Alcotest.check_raises "feasible input rejected"
    (Invalid_argument "Conflict.minimize: system is feasible") (fun () ->
      ignore (Cf.minimize [ cons (L.of_list [ (q 1, 0) ] Q.zero) L.Ge 9 ]))

let test_conflict_minimal_core_tags () =
  let cs =
    [
      cons (L.of_list [ (q 1, 0) ] (q (-5))) L.Ge 0;
      cons (L.of_list [ (q 1, 0) ] (q (-3))) L.Le 1;
      cons (L.of_list [ (q 1, 0) ] (q (-4))) L.Le 2;
    ]
  in
  (* {0,1,2} is infeasible; a minimal core keeps 0 and one upper bound. *)
  let tags = Cf.minimal_core cs [ 0; 1; 2 ] in
  check int_t "two tags" 2 (List.length tags);
  check bool_t "contains 0" true (List.mem 0 tags)

(* Property: [sub a b] is [add a (neg b)], term for term: shared
   variables (some cancelling), variables of only one side, constants,
   and coefficients past the small-rational range. *)
let arb_linexpr =
  let open QCheck in
  let arb_q =
    oneof
      [
        map
          (fun (n, d) -> Q.of_ints n (1 + abs d))
          (pair (int_range (-4) 4) (int_range 0 3));
        map (fun n -> Q.add (Q.of_int max_int) (Q.of_int n)) (int_range (-2) 2);
      ]
  in
  map
    (fun (terms, c) -> L.of_list terms c)
    (pair (list_of_size (Gen.int_range 0 6) (pair arb_q (int_range 0 7))) arb_q)

let prop_sub_is_add_neg =
  QCheck.Test.make ~name:"linexpr sub = add of neg" ~count:500
    (QCheck.pair arb_linexpr arb_linexpr)
    (fun (a, b) -> L.equal (L.sub a b) (L.add a (L.neg b)))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suite =
  [
    ("linexpr construction", `Quick, test_linexpr_construction);
    ("linexpr arithmetic", `Quick, test_linexpr_arith);
    ("linexpr eval/holds", `Quick, test_linexpr_eval_holds);
    ("negate_op", `Quick, test_negate_op);
    ("simplex sat", `Quick, test_simplex_simple_sat);
    ("simplex unsat with core", `Quick, test_simplex_simple_unsat);
    ("simplex strict inequalities", `Quick, test_simplex_strict);
    ("simplex strict boundary", `Quick, test_simplex_strict_boundary);
    ("simplex constant constraints", `Quick, test_simplex_constant_constraints);
    ("simplex shared slack", `Quick, test_simplex_shared_slack);
    ("simplex push/pop", `Quick, test_simplex_incremental_push_pop);
    ("simplex pop restores bounds", `Quick, test_simplex_pop_restores);
    ("simplex integer branch&bound", `Quick, test_simplex_integer_bb);
    ("simplex exact big coefficients", `Quick, test_simplex_big_coefficients);
    ("conflict minimize", `Quick, test_conflict_minimize);
    ("conflict minimal_core", `Quick, test_conflict_minimal_core_tags);
  ]
  @ qsuite [ prop_sub_is_add_neg; prop_planted_sat; prop_unsat_core_infeasible ]
