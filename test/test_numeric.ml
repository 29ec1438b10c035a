(* Unit and property tests for the numeric substrate: Bigint, Rational,
   Delta_rational, Float_ops, Interval. *)

module B = Absolver_numeric.Bigint
module Q = Absolver_numeric.Rational
module DR = Absolver_numeric.Delta_rational
module F = Absolver_numeric.Float_ops
module I = Absolver_numeric.Interval

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Bigint units.                                                       *)

let test_bigint_basics () =
  check string_t "zero" "0" (B.to_string B.zero);
  check string_t "of_int" "42" (B.to_string (B.of_int 42));
  check string_t "negative" "-17" (B.to_string (B.of_int (-17)));
  check bool_t "is_zero" true (B.is_zero B.zero);
  check bool_t "is_one" true (B.is_one B.one);
  check int_t "sign pos" 1 (B.sign (B.of_int 5));
  check int_t "sign neg" (-1) (B.sign (B.of_int (-5)));
  check int_t "sign zero" 0 (B.sign B.zero)

let test_bigint_min_int () =
  let m = B.of_int min_int in
  check string_t "min_int" (string_of_int min_int) (B.to_string m);
  check bool_t "negate min_int" true
    (B.equal (B.neg m) (B.of_string (String.sub (string_of_int min_int) 1 (String.length (string_of_int min_int) - 1))))

let test_bigint_string_roundtrip () =
  List.iter
    (fun s -> check string_t s s (B.to_string (B.of_string s)))
    [
      "0"; "1"; "-1"; "999999999"; "1000000000"; "123456789012345678901234567890";
      "-340282366920938463463374607431768211456";
    ]

let test_bigint_string_underscores () =
  check string_t "underscores" "1000000" (B.to_string (B.of_string "1_000_000"))

let test_bigint_string_invalid () =
  List.iter
    (fun s ->
      match B.of_string_opt s with
      | None -> ()
      | Some _ -> Alcotest.failf "accepted %S" s)
    [ ""; "-"; "+"; "12a"; "1.5"; " 42" ]

let test_bigint_arith () =
  let a = B.of_string "123456789123456789123456789" in
  let b = B.of_string "987654321987654321" in
  check string_t "add" "123456790111111111111111110" (B.to_string (B.add a b));
  check string_t "sub" "123456788135802467135802468" (B.to_string (B.sub a b));
  check string_t "mul small" "121932631356500531469135800347203169112635269"
    (B.to_string (B.mul a b));
  let q, r = B.divmod a b in
  check bool_t "divmod identity" true (B.equal a (B.add (B.mul q b) r))

let test_bigint_div_signs () =
  (* Truncated division: remainder has the dividend's sign. *)
  let cases = [ (7, 3); (-7, 3); (7, -3); (-7, -3) ] in
  List.iter
    (fun (x, y) ->
      let q, r = B.divmod (B.of_int x) (B.of_int y) in
      check int_t (Printf.sprintf "%d / %d" x y) (x / y) (B.to_int q);
      check int_t (Printf.sprintf "%d mod %d" x y) (x mod y) (B.to_int r))
    cases

let test_bigint_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_bigint_gcd () =
  check int_t "gcd" 6 (B.to_int (B.gcd (B.of_int 54) (B.of_int 24)));
  check int_t "gcd neg" 6 (B.to_int (B.gcd (B.of_int (-54)) (B.of_int 24)));
  check int_t "gcd zero" 7 (B.to_int (B.gcd B.zero (B.of_int 7)));
  check bool_t "gcd both zero" true (B.is_zero (B.gcd B.zero B.zero))

let test_bigint_pow () =
  check string_t "2^100" "1267650600228229401496703205376"
    (B.to_string (B.pow B.two 100));
  check int_t "x^0" 1 (B.to_int (B.pow (B.of_int 99) 0));
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
      ignore (B.pow B.two (-1)))

let test_bigint_shift () =
  check int_t "shift" 40 (B.to_int (B.shift_left (B.of_int 5) 3));
  check string_t "shift big" (B.to_string (B.pow B.two 100))
    (B.to_string (B.shift_left B.one 100))

let test_bigint_to_int () =
  check bool_t "overflow detected" true
    (B.to_int_opt (B.of_string "99999999999999999999999999") = None);
  check bool_t "max_int fits" true (B.to_int_opt (B.of_int max_int) = Some max_int)

let test_bigint_num_bits () =
  check int_t "bits 0" 0 (B.num_bits B.zero);
  check int_t "bits 1" 1 (B.num_bits B.one);
  check int_t "bits 255" 8 (B.num_bits (B.of_int 255));
  check int_t "bits 256" 9 (B.num_bits (B.of_int 256));
  check int_t "bits 2^100" 101 (B.num_bits (B.pow B.two 100))

let test_bigint_small_matches_native () =
  let st = Random.State.make [| 13 |] in
  for _ = 1 to 2_000 do
    let a = Random.State.int st 1_000_000 - 500_000 in
    let b = Random.State.int st 1_000_000 - 500_000 in
    let ba = B.of_int a and bb = B.of_int b in
    check Alcotest.string "add" (string_of_int (a + b)) (B.to_string (B.add ba bb));
    check Alcotest.string "sub" (string_of_int (a - b)) (B.to_string (B.sub ba bb));
    check Alcotest.string "mul" (string_of_int (a * b)) (B.to_string (B.mul ba bb));
    check int_t "compare" (Int.compare a b) (B.compare ba bb);
    if b <> 0 then begin
      check Alcotest.string "div" (string_of_int (a / b)) (B.to_string (B.div ba bb));
      check Alcotest.string "rem" (string_of_int (a mod b)) (B.to_string (B.rem ba bb))
    end;
    let rec g a b = if b = 0 then a else g b (a mod b) in
    check Alcotest.string "gcd"
      (string_of_int (g (Stdlib.abs a) (Stdlib.abs b)))
      (B.to_string (B.gcd ba bb))
  done

let test_bigint_boundary_consistency () =
  (* Around the 2-limb (60-bit) border the implementation switches
     between machine and limb arithmetic: algebraic identities must hold
     regardless of which path each operand takes. *)
  let st = Random.State.make [| 14 |] in
  let big_pool =
    [
      B.of_string "1152921504606846975" (* 2^60 - 1: last all-small value *);
      B.of_string "1152921504606846976" (* 2^60: first 3-limb magnitude *);
      B.of_string "170141183460469231731687303715884105727";
      B.of_string "-1152921504606846977";
      B.of_int max_int;
      B.of_int min_int;
      B.of_int 1;
      B.of_int (-1);
      B.zero;
    ]
  in
  let rand_small () = B.of_int (Random.State.int st 2_000_001 - 1_000_000) in
  let pick () =
    if Random.State.bool st then List.nth big_pool (Random.State.int st (List.length big_pool))
    else rand_small ()
  in
  for _ = 1 to 500 do
    let a = pick () and b = pick () in
    (* (a + b) - b = a *)
    check bool_t "add/sub roundtrip" true (B.equal (B.sub (B.add a b) b) a);
    (* (a * b) / b = a when b <> 0, and divmod reconstructs. *)
    if not (B.is_zero b) then begin
      check bool_t "mul/div roundtrip" true (B.equal (B.div (B.mul a b) b) a);
      let q, r = B.divmod a b in
      check bool_t "divmod reconstructs" true (B.equal (B.add (B.mul q b) r) a);
      check bool_t "rem bounded" true (B.compare (B.abs r) (B.abs b) < 0)
    end;
    (* gcd divides both and is symmetric. *)
    let g = B.gcd a b in
    if not (B.is_zero g) then begin
      check bool_t "gcd divides a" true (B.is_zero (B.rem a g));
      check bool_t "gcd divides b" true (B.is_zero (B.rem b g));
      check bool_t "gcd symmetric" true (B.equal g (B.gcd b a))
    end;
    (* compare is antisymmetric and agrees with sub's sign. *)
    check int_t "compare antisym" (B.compare a b) (-B.compare b a);
    check int_t "compare via sub" (B.compare a b) (B.sign (B.sub a b))
  done

(* Bigint properties. *)

let arb_bigint =
  QCheck.map
    (fun (n, shift, low) ->
      B.add (B.shift_left (B.of_int n) (abs shift mod 80)) (B.of_int low))
    QCheck.(triple int small_int int)

let prop_add_commutative =
  QCheck.Test.make ~name:"bigint add commutative" ~count:500
    (QCheck.pair arb_bigint arb_bigint)
    (fun (a, b) -> B.equal (B.add a b) (B.add b a))

let prop_mul_distributes =
  QCheck.Test.make ~name:"bigint mul distributes over add" ~count:500
    (QCheck.triple arb_bigint arb_bigint arb_bigint)
    (fun (a, b, c) ->
      B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

let prop_divmod_identity =
  QCheck.Test.make ~name:"bigint divmod identity" ~count:1000
    (QCheck.pair arb_bigint arb_bigint)
    (fun (a, b) ->
      QCheck.assume (not (B.is_zero b));
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r)
      && B.compare (B.abs r) (B.abs b) < 0
      && (B.is_zero r || B.sign r = B.sign a))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"bigint string roundtrip" ~count:500 arb_bigint
    (fun a -> B.equal a (B.of_string (B.to_string a)))

let prop_compare_consistent =
  QCheck.Test.make ~name:"bigint compare antisymmetric" ~count:500
    (QCheck.pair arb_bigint arb_bigint)
    (fun (a, b) -> B.compare a b = -B.compare b a)

(* ------------------------------------------------------------------ *)
(* Rational.                                                           *)

let test_rational_normalization () =
  check bool_t "6/4 = 3/2" true (Q.equal (Q.of_ints 6 4) (Q.of_ints 3 2));
  check bool_t "neg den" true (Q.equal (Q.of_ints 1 (-2)) (Q.of_ints (-1) 2));
  check string_t "to_string" "-1/2" (Q.to_string (Q.of_ints 1 (-2)));
  check string_t "integer" "5" (Q.to_string (Q.of_ints 10 2))

let test_rational_arith () =
  let third = Q.of_ints 1 3 and half = Q.of_ints 1 2 in
  check bool_t "1/3+1/2" true (Q.equal (Q.add third half) (Q.of_ints 5 6));
  check bool_t "1/3*1/2" true (Q.equal (Q.mul third half) (Q.of_ints 1 6));
  check bool_t "1/3/(1/2)" true (Q.equal (Q.div third half) (Q.of_ints 2 3));
  check bool_t "inv" true (Q.equal (Q.inv third) (Q.of_int 3));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Q.inv Q.zero))

let test_rational_decimal_strings () =
  List.iter
    (fun (s, n, d) ->
      check bool_t s true (Q.equal (Q.of_decimal_string s) (Q.of_ints n d)))
    [
      ("3", 3, 1);
      ("3.5", 7, 2);
      ("-0.25", -1, 4);
      (".5", 1, 2);
      ("2e3", 2000, 1);
      ("1.5e-2", 3, 200);
      ("7/2", 7, 2);
      ("-7.1", -71, 10);
      ("+2.5", 5, 2);
      ("1.5E2", 150, 1);
    ]

let test_rational_decimal_invalid () =
  List.iter
    (fun s ->
      match Q.of_decimal_string s with
      | exception Invalid_argument _ -> ()
      | exception Division_by_zero -> ()
      | _ -> Alcotest.failf "accepted %S" s)
    [ ""; "."; "abc"; "1/0" ]

let test_rational_of_float () =
  check bool_t "0.5" true (Q.equal (Q.of_float 0.5) (Q.of_ints 1 2));
  check bool_t "-0.75" true (Q.equal (Q.of_float (-0.75)) (Q.of_ints (-3) 4));
  check bool_t "exact roundtrip" true
    (Q.to_float (Q.of_float 0.1) = 0.1);
  Alcotest.check_raises "nan" (Invalid_argument "Rational.of_float: not a finite float")
    (fun () -> ignore (Q.of_float Float.nan))

let test_rational_floor_ceil () =
  check int_t "floor 7/2" 3 (B.to_int (Q.floor (Q.of_ints 7 2)));
  check int_t "ceil 7/2" 4 (B.to_int (Q.ceil (Q.of_ints 7 2)));
  check int_t "floor -7/2" (-4) (B.to_int (Q.floor (Q.of_ints (-7) 2)));
  check int_t "ceil -7/2" (-3) (B.to_int (Q.ceil (Q.of_ints (-7) 2)));
  check int_t "floor int" 5 (B.to_int (Q.floor (Q.of_int 5)))

let test_rational_pow () =
  check bool_t "(2/3)^3" true (Q.equal (Q.pow (Q.of_ints 2 3) 3) (Q.of_ints 8 27));
  check bool_t "(2/3)^-2" true (Q.equal (Q.pow (Q.of_ints 2 3) (-2)) (Q.of_ints 9 4));
  check bool_t "x^0" true (Q.equal (Q.pow (Q.of_ints 5 7) 0) Q.one)

let arb_rational =
  QCheck.map
    (fun (n, d) -> Q.of_ints n (1 + abs d))
    QCheck.(pair (int_range (-10000) 10000) (int_range 0 999))

let prop_rational_field =
  QCheck.Test.make ~name:"rational field laws" ~count:500
    (QCheck.triple arb_rational arb_rational arb_rational)
    (fun (a, b, c) ->
      Q.equal (Q.add a (Q.add b c)) (Q.add (Q.add a b) c)
      && Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c))
      && Q.equal (Q.sub a b) (Q.neg (Q.sub b a)))

(* Rationals on both sides of the small/big boundary: small ones,
   numerators and denominators near [max_int] whose differences
   overflow, and bigint-sized ones. *)
let arb_wide_rational =
  QCheck.map
    (fun (kind, (n, d), big) ->
      match kind mod 3 with
      | 0 -> Q.of_ints n (1 + abs d)
      | 1 ->
        let m = max_int - (abs n mod 1000) in
        Q.of_ints (if d < 0 then -m else m) (1 + (abs d mod 3))
      | _ -> Q.make big (B.of_int (1 + abs d)))
    QCheck.(triple small_nat (pair int int) arb_bigint)

let prop_rational_sub =
  QCheck.Test.make ~name:"rational sub = add of neg" ~count:2000
    (QCheck.pair arb_wide_rational arb_wide_rational)
    (fun (a, b) ->
      let d = Q.sub a b and r = Q.add a (Q.neg b) in
      (* Structural equality: the representation is canonical. *)
      Q.equal d r && d = r)

let prop_rational_ordering =
  QCheck.Test.make ~name:"rational ordering total" ~count:500
    (QCheck.pair arb_rational arb_rational)
    (fun (a, b) ->
      let c = Q.compare a b in
      (c = 0) = Q.equal a b
      && (c < 0) = Q.lt a b
      && Q.leq (Q.min a b) (Q.max a b))

let prop_rational_float_of_exact =
  QCheck.Test.make ~name:"of_float exact for dyadics" ~count:500
    QCheck.(int_range (-100000) 100000)
    (fun n ->
      let f = float_of_int n /. 1024.0 in
      Q.to_float (Q.of_float f) = f)

(* ------------------------------------------------------------------ *)
(* Delta_rational.                                                     *)

let test_delta_ordering () =
  let d = DR.delta in
  check bool_t "delta > 0" true (DR.lt DR.zero d);
  check bool_t "1 > delta" true (DR.lt d (DR.of_int 1));
  check bool_t "1 + delta > 1" true (DR.lt (DR.of_int 1) (DR.add (DR.of_int 1) d));
  check bool_t "lexicographic" true
    (DR.lt (DR.make Q.one (Q.of_int 100)) (DR.make (Q.of_int 2) Q.zero))

let test_delta_concretize () =
  (* 3 - delta >= x must stay true for x = 2.9... take pairs (lhs <= rhs) *)
  let pairs =
    [
      (DR.make (Q.of_ints 29 10) Q.zero, DR.make (Q.of_int 3) Q.minus_one);
      (DR.zero, DR.delta);
    ]
  in
  let d = DR.concretize_delta pairs in
  check bool_t "delta positive" true (Q.sign d > 0);
  List.iter
    (fun (lhs, rhs) ->
      check bool_t "ordering preserved" true
        (Q.leq (DR.substitute d lhs) (DR.substitute d rhs)))
    pairs

let prop_delta_add_monotone =
  QCheck.Test.make ~name:"delta-rational addition monotone" ~count:300
    (QCheck.triple arb_rational arb_rational arb_rational)
    (fun (a, b, c) ->
      let x = DR.make a b and y = DR.make a (Q.add b c) in
      QCheck.assume (not (Q.is_zero c));
      DR.compare x y <> 0)

(* ------------------------------------------------------------------ *)
(* Float_ops.                                                          *)

let test_float_ops () =
  check bool_t "next_up 1" true (F.next_up 1.0 > 1.0);
  check bool_t "next_down 1" true (F.next_down 1.0 < 1.0);
  check bool_t "next_up 0" true (F.next_up 0.0 > 0.0);
  check bool_t "next_down 0" true (F.next_down 0.0 < 0.0);
  check bool_t "next_up -1" true (F.next_up (-1.0) > -1.0);
  check bool_t "inf stays" true (F.next_up Float.infinity = Float.infinity);
  check bool_t "overflow down" true
    (F.widen_down Float.infinity = Float.max_float);
  check bool_t "overflow up" true
    (F.widen_up Float.neg_infinity = -.Float.max_float)

(* The float-only step of [widen_down]/[widen_up] must land exactly where
   the bit-pattern step does: every exponent with edge and random
   mantissas, both signs, then random bit patterns. *)
let test_widen_matches_bits () =
  let reference_down x =
    if x = Float.infinity then Float.max_float
    else if x = Float.neg_infinity then x
    else F.next_down x
  and reference_up x =
    if x = Float.neg_infinity then -.Float.max_float
    else if x = Float.infinity then x
    else F.next_up x
  in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let check_float x =
    if not (same (F.widen_down x) (reference_down x) && same (F.widen_up x) (reference_up x))
    then Alcotest.failf "widening differs at %h" x
  in
  let st = Random.State.make [| 53 |] in
  for e = 0 to 2047 do
    let mantissas =
      [ 0L; 1L; 2L; 0x8000000000000L; 0x8000000000001L; 0xFFFFFFFFFFFFEL; 0xFFFFFFFFFFFFFL ]
      @ List.init 20 (fun _ -> Random.State.int64 st 0x10000000000000L)
    in
    List.iter
      (fun m ->
        List.iter
          (fun sign ->
            check_float
              (Int64.float_of_bits
                 (Int64.logor sign (Int64.logor (Int64.shift_left (Int64.of_int e) 52) m))))
          [ 0L; Int64.min_int ])
      mantissas
  done;
  for _ = 1 to 200_000 do
    check_float (Int64.float_of_bits (Random.State.bits64 st))
  done

let prop_directed_add =
  QCheck.Test.make ~name:"directed add brackets exact result" ~count:1000
    QCheck.(pair (float_range (-1e10) 1e10) (float_range (-1e10) 1e10))
    (fun (a, b) ->
      let lo = F.add_down a b and hi = F.add_up a b in
      lo <= a +. b && a +. b <= hi && lo < hi)

(* ------------------------------------------------------------------ *)
(* Interval.                                                           *)

let test_interval_basics () =
  let i = I.make 1.0 3.0 in
  check bool_t "mem" true (I.mem 2.0 i);
  check bool_t "not mem" false (I.mem 4.0 i);
  check bool_t "empty" true (I.is_empty I.empty);
  check bool_t "inter disjoint" true (I.is_empty (I.inter (I.make 0.0 1.0) (I.make 2.0 3.0)));
  check bool_t "hull" true (I.equal (I.hull (I.make 0.0 1.0) (I.make 2.0 3.0)) (I.make 0.0 3.0));
  Alcotest.check_raises "bad make" (Invalid_argument "Interval.make: lo > hi")
    (fun () -> ignore (I.make 2.0 1.0))

let test_interval_div_zero () =
  check bool_t "x/[0,0] empty" true (I.is_empty (I.div I.one I.zero));
  let r = I.div (I.make 1.0 2.0) (I.make 0.0 1.0) in
  check bool_t "[1,2]/[0,1] = [1,inf)" true (r.I.lo <= 1.0 && r.I.hi = Float.infinity);
  check bool_t "straddle -> entire" true
    (I.is_entire (I.div (I.make 1.0 2.0) (I.make (-1.0) 1.0)))

let test_interval_pow () =
  check bool_t "[-2,3]^2 = [0,9]-ish" true
    (let r = I.pow_int (I.make (-2.0) 3.0) 2 in
     r.I.lo <= 0.0 && r.I.lo >= -1e-10 && r.I.hi >= 9.0 && r.I.hi < 9.1);
  check bool_t "[-2,3]^3 covers [-8,27]" true
    (let r = I.pow_int (I.make (-2.0) 3.0) 3 in
     r.I.lo <= -8.0 && r.I.hi >= 27.0)

let test_interval_of_rational () =
  let r = I.of_rational (Q.of_ints 1 3) in
  check bool_t "1/3 tight" true
    (r.I.hi -. r.I.lo < 1e-15 && r.I.lo <= 0.33333333333333337 && r.I.hi >= 0.3333333333333333);
  let r = I.of_rational (Q.of_int 2) in
  check bool_t "2 exact-ish" true (I.mem 2.0 r && I.width r < 1e-14)

let test_interval_trig_range () =
  let s = I.sin (I.make 0.0 10.0) in
  check bool_t "wide sin = [-1,1]" true (s.I.lo <= -1.0 +. 1e-9 && s.I.hi >= 1.0 -. 1e-9);
  let c = I.cos (I.make (-0.1) 0.1) in
  check bool_t "cos near 0 has hi 1" true (c.I.hi >= 1.0);
  check bool_t "cos near 0 lo < 1" true (c.I.lo < 1.0 && c.I.lo > 0.99)

let arb_interval =
  QCheck.map
    (fun (a, b) -> I.make (Float.min a b) (Float.max a b))
    QCheck.(pair (float_range (-100.0) 100.0) (float_range (-100.0) 100.0))

let point_in i =
  QCheck.map
    (fun t -> i.I.lo +. (t *. (i.I.hi -. i.I.lo)))
    (QCheck.float_range 0.0 1.0)

let prop_interval_mul_contains =
  QCheck.Test.make ~name:"interval mul containment" ~count:2000
    QCheck.(quad arb_interval arb_interval (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (a, b, ta, tb) ->
      let x = a.I.lo +. (ta *. (a.I.hi -. a.I.lo)) in
      let y = b.I.lo +. (tb *. (b.I.hi -. b.I.lo)) in
      I.mem (x *. y) (I.mul a b))

let prop_interval_ops_contain =
  QCheck.Test.make ~name:"interval unary ops containment" ~count:2000
    QCheck.(pair arb_interval (float_range 0.0 1.0))
    (fun (a, t) ->
      let x = a.I.lo +. (t *. (a.I.hi -. a.I.lo)) in
      I.mem (Float.exp x) (I.exp a)
      && I.mem (Float.sin x) (I.sin a)
      && I.mem (Float.cos x) (I.cos a)
      && I.mem (x *. x) (I.sqr a)
      && I.mem (-.x) (I.neg a)
      && I.mem (Float.abs x) (I.abs a))

let prop_interval_div_contains =
  QCheck.Test.make ~name:"interval div containment" ~count:2000
    QCheck.(quad arb_interval arb_interval (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (a, b, ta, tb) ->
      let x = a.I.lo +. (ta *. (a.I.hi -. a.I.lo)) in
      let y = b.I.lo +. (tb *. (b.I.hi -. b.I.lo)) in
      QCheck.assume (y <> 0.0);
      let r = I.div a b in
      I.is_empty r || I.mem (x /. y) r)

let prop_interval_split_covers =
  QCheck.Test.make ~name:"interval split covers" ~count:500 arb_interval
    (fun a ->
      QCheck.assume (I.width a > 1e-9);
      let l, r = I.split a in
      I.equal (I.hull l r) a)

let _ = point_in

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suite =
  [
    ("bigint basics", `Quick, test_bigint_basics);
    ("bigint min_int", `Quick, test_bigint_min_int);
    ("bigint string roundtrip", `Quick, test_bigint_string_roundtrip);
    ("bigint underscores", `Quick, test_bigint_string_underscores);
    ("bigint invalid strings", `Quick, test_bigint_string_invalid);
    ("bigint arithmetic", `Quick, test_bigint_arith);
    ("bigint division signs", `Quick, test_bigint_div_signs);
    ("bigint division by zero", `Quick, test_bigint_div_by_zero);
    ("bigint gcd", `Quick, test_bigint_gcd);
    ("bigint pow", `Quick, test_bigint_pow);
    ("bigint shift", `Quick, test_bigint_shift);
    ("bigint to_int overflow", `Quick, test_bigint_to_int);
    ("bigint num_bits", `Quick, test_bigint_num_bits);
    ("bigint small matches native", `Quick, test_bigint_small_matches_native);
    ("bigint boundary consistency", `Quick, test_bigint_boundary_consistency);
    ("rational normalization", `Quick, test_rational_normalization);
    ("rational arithmetic", `Quick, test_rational_arith);
    ("rational decimal strings", `Quick, test_rational_decimal_strings);
    ("rational invalid strings", `Quick, test_rational_decimal_invalid);
    ("rational of_float", `Quick, test_rational_of_float);
    ("rational floor/ceil", `Quick, test_rational_floor_ceil);
    ("rational pow", `Quick, test_rational_pow);
    ("delta ordering", `Quick, test_delta_ordering);
    ("delta concretize", `Quick, test_delta_concretize);
    ("float directed ops", `Quick, test_float_ops);
    ("float widening matches the bit pattern", `Quick, test_widen_matches_bits);
    ("interval basics", `Quick, test_interval_basics);
    ("interval division by zero-containing", `Quick, test_interval_div_zero);
    ("interval pow", `Quick, test_interval_pow);
    ("interval of_rational", `Quick, test_interval_of_rational);
    ("interval trig", `Quick, test_interval_trig_range);
  ]
  @ qsuite
      [
        prop_add_commutative;
        prop_mul_distributes;
        prop_divmod_identity;
        prop_string_roundtrip;
        prop_compare_consistent;
        prop_rational_field;
        prop_rational_sub;
        prop_rational_ordering;
        prop_rational_float_of_exact;
        prop_delta_add_monotone;
        prop_directed_add;
        prop_interval_mul_contains;
        prop_interval_ops_contain;
        prop_interval_div_contains;
        prop_interval_split_covers;
      ]
