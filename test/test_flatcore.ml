(* Flat-core differential tests (DESIGN.md Sec. 16): the small-value-
   inlined rational representation checked against a Bigint-backed
   reference implementation, overflow boundaries at the 62-bit edge, and
   CSR tableau replay consistency. *)

module B = Absolver_numeric.Bigint
module Q = Absolver_numeric.Rational
module L = Absolver_lp.Linexpr
module S = Absolver_lp.Simplex

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Bigint-backed reference rationals: every operation goes through      *)
(* arbitrary-precision arithmetic with explicit normalization, so a     *)
(* divergence can only come from the inlined small-int fast paths.      *)

type bigq = { bn : B.t; bd : B.t }

let bq_norm n d =
  let n, d = if B.sign d < 0 then (B.neg n, B.neg d) else (n, d) in
  if B.is_zero n then { bn = B.zero; bd = B.one }
  else
    let g = B.gcd n d in
    { bn = B.div n g; bd = B.div d g }

let bq_of_q q = { bn = Q.num q; bd = Q.den q }

let bq_add a b =
  bq_norm (B.add (B.mul a.bn b.bd) (B.mul b.bn a.bd)) (B.mul a.bd b.bd)

let bq_sub a b =
  bq_norm (B.sub (B.mul a.bn b.bd) (B.mul b.bn a.bd)) (B.mul a.bd b.bd)

let bq_mul a b = bq_norm (B.mul a.bn b.bn) (B.mul a.bd b.bd)
let bq_div a b = bq_norm (B.mul a.bn b.bd) (B.mul a.bd b.bn)

(* Denominators are positive after normalization. *)
let bq_compare a b = B.compare (B.mul a.bn b.bd) (B.mul b.bn a.bd)

let same label q bq =
  if not (B.equal (Q.num q) bq.bn && B.equal (Q.den q) bq.bd) then
    Alcotest.failf "%s: got %s, reference %s/%s" label (Q.to_string q)
      (B.to_string bq.bn) (B.to_string bq.bd)

(* ------------------------------------------------------------------ *)
(* Seeded generators spanning the interesting magnitudes: tiny values   *)
(* (the dominant case in the solver), values near the 62-bit overflow   *)
(* boundary, and genuinely big values that must take the Bigint path.   *)

let rand_component st =
  match Random.State.int st 8 with
  | 0 | 1 | 2 -> Random.State.int st 21 - 10
  | 3 -> Random.State.int st 2_000_001 - 1_000_000
  | 4 -> (1 lsl 31) + Random.State.int st 1000
  | 5 -> max_int - Random.State.int st 3 (* 2^62 - 1 and neighbours *)
  | 6 -> -(max_int - Random.State.int st 3)
  | _ -> (1 lsl 45) * (Random.State.int st 100 + 1)

let rand_q st =
  match Random.State.int st 5 with
  | 0 | 1 | 2 ->
    let n = rand_component st in
    let d = rand_component st in
    Q.of_ints n (if d = 0 then 1 else d)
  | 3 ->
    (* Guaranteed beyond 62 bits: exercises the Big constructor and the
       demotion logic on results that shrink back. *)
    let big = B.mul (B.of_int (rand_component st)) (B.of_int (1 lsl 40)) in
    let d = rand_component st in
    Q.make (B.add big B.one) (B.of_int (if d = 0 then 1 else d))
  | _ -> Q.of_int (rand_component st)

let test_small_rational_differential () =
  let st = Random.State.make [| 0x5eed; 9 |] in
  for i = 1 to 400 do
    let x = rand_q st and y = rand_q st in
    let bx = bq_of_q x and by = bq_of_q y in
    let tag op = Printf.sprintf "case %d %s (%s, %s)" i op (Q.to_string x) (Q.to_string y) in
    same (tag "add") (Q.add x y) (bq_add bx by);
    same (tag "sub") (Q.sub x y) (bq_sub bx by);
    same (tag "mul") (Q.mul x y) (bq_mul bx by);
    if not (Q.is_zero y) then same (tag "div") (Q.div x y) (bq_div bx by);
    check int_t (tag "compare") (bq_compare bx by) (Q.compare x y);
    check bool_t (tag "equal<->compare") (Q.compare x y = 0) (Q.equal x y)
  done

(* The representation is canonical: a value is stored small iff it fits,
   so structurally distinct construction routes to the same rational
   must produce structurally identical values. Polymorphic compare over
   containers of rationals (nlp expressions) relies on this. *)
let test_small_rational_canonical () =
  let st = Random.State.make [| 0xca40 |] in
  for _ = 1 to 200 do
    let x = rand_q st in
    let via_big = Q.make (Q.num x) (Q.den x) in
    check bool_t "structural equality across routes" true
      (Stdlib.compare x via_big = 0);
    let doubled = Q.div (Q.mul x (Q.of_int 2)) (Q.of_int 2) in
    check bool_t "structural equality after round-trip arithmetic" true
      (Stdlib.compare x doubled = 0)
  done

let test_overflow_boundary () =
  (* max_int is 2^62 - 1: the largest small component. One past it must
     fall back to the Bigint representation and stay exact. *)
  let top = Q.of_int max_int in
  let two62 = Q.add top Q.one in
  check string_t "2^62 exact" "4611686018427387904" (Q.to_string two62);
  check bool_t "demotes back under the edge" true
    (Stdlib.compare (Q.sub two62 Q.one) top = 0);
  (* Multiplication overflow: (2^31)^2 = 2^62 needs the fallback. *)
  let p = Q.mul (Q.of_int (1 lsl 31)) (Q.of_int (1 lsl 31)) in
  check string_t "2^31 * 2^31" "4611686018427387904" (Q.to_string p);
  check bool_t "product consistent with addition path" true (Q.equal p two62);
  (* Negative edge: min_int's magnitude is 2^62, one beyond the small
     range, and must not be used as a small component. *)
  let bottom = Q.of_int min_int in
  check string_t "min_int exact" (string_of_int min_int) (Q.to_string bottom);
  same "min_int + min_int"
    (Q.add bottom bottom)
    (bq_add (bq_of_q bottom) (bq_of_q bottom));
  same "min_int * min_int"
    (Q.mul bottom bottom)
    (bq_mul (bq_of_q bottom) (bq_of_q bottom));
  check int_t "compare across the edge" (-1) (Q.compare bottom top);
  (* Denominator overflow: 1/(2^62-1) + 1/(2^62-3) overflows the common
     denominator and must fall back, then stay exact. *)
  let a = Q.of_ints 1 max_int and b = Q.of_ints 1 (max_int - 2) in
  same "tiny sum overflow" (Q.add a b) (bq_add (bq_of_q a) (bq_of_q b));
  (* floor/ceil at the boundary. *)
  check string_t "floor of big" "4611686018427387903"
    (B.to_string (Q.floor (Q.sub two62 (Q.of_ints 1 2))));
  check string_t "ceil of big" "4611686018427387904"
    (B.to_string (Q.ceil (Q.sub two62 (Q.of_ints 1 2))))

let test_rounding_differential () =
  let st = Random.State.make [| 0xf100; 3 |] in
  for _ = 1 to 200 do
    let x = rand_q st in
    let f = Q.of_bigint (Q.floor x) and c = Q.of_bigint (Q.ceil x) in
    check bool_t "floor <= x" true (Q.leq f x);
    check bool_t "x <= ceil" true (Q.leq x c);
    check bool_t "x - floor < 1" true (Q.lt (Q.sub x f) Q.one);
    check bool_t "ceil - x < 1" true (Q.lt (Q.sub c x) Q.one);
    check bool_t "to_string round-trips" true
      (Q.equal x (Q.of_decimal_string (Q.to_string x)))
  done

(* ------------------------------------------------------------------ *)
(* CSR tableau: differential replay.                                    *)

let rand_cons st nvars tag =
  let nterms = 1 + Random.State.int st 3 in
  let terms =
    List.init nterms (fun _ ->
        (Q.of_int (Random.State.int st 11 - 5), Random.State.int st nvars))
  in
  let expr = L.of_list terms (Q.of_int (Random.State.int st 21 - 10)) in
  let op =
    match Random.State.int st 5 with
    | 0 -> L.Le
    | 1 -> L.Ge
    | 2 -> L.Lt
    | 3 -> L.Gt
    | _ -> L.Eq
  in
  { L.expr; op; tag }

let model_env model v =
  match List.assoc_opt v model with Some q -> q | None -> Q.zero

let holds_all cs model =
  List.for_all (fun c -> L.holds (model_env model) c) cs

(* One-shot verdicts agree with an incremental assert-then-check replay
   of the same constraints, and every Sat model exactly satisfies the
   system (checked in exact arithmetic, so a CSR corruption that still
   produces a "plausible" assignment is caught). *)
let test_csr_one_shot_vs_incremental () =
  let st = Random.State.make [| 0xc5a; 17 |] in
  let sat = ref 0 and unsat = ref 0 in
  for i = 1 to 120 do
    let nvars = 2 + Random.State.int st 4 in
    let ncons = 2 + Random.State.int st 8 in
    let cs = List.init ncons (fun t -> rand_cons st nvars t) in
    let one_shot = fst (S.solve_system cs) in
    let t = S.create () in
    S.ensure_vars t nvars;
    let rec assert_all = function
      | [] -> (
        match S.check t with
        | S.Feasible -> `Sat
        | S.Infeasible _ -> `Unsat)
      | c :: rest -> (
        if L.is_constant c.L.expr then
          if L.holds (fun _ -> Q.zero) c then assert_all rest else `Unsat
        else
          match S.assert_cons t c with
          | S.Feasible -> assert_all rest
          | S.Infeasible _ -> `Unsat)
    in
    let incremental = assert_all cs in
    (match (one_shot, incremental) with
    | S.Sat model, `Sat ->
      incr sat;
      if not (holds_all cs model) then
        Alcotest.failf "case %d: one-shot model violates the system" i
    | S.Unsat _, `Unsat -> incr unsat
    | S.Unknown _, _ -> Alcotest.failf "case %d: unexpected unknown" i
    | S.Sat _, `Unsat -> Alcotest.failf "case %d: one-shot sat, replay unsat" i
    | S.Unsat _, `Sat -> Alcotest.failf "case %d: one-shot unsat, replay sat" i)
  done;
  check bool_t "exercised both verdicts" true (!sat > 5 && !unsat > 5)

(* Checkpoint/rollback replay: re-asserting a popped frame must
   reproduce the same verdict even though the pivoted basis (and the
   occurrence index behind it) carries over between rounds. *)
let test_csr_warm_replay () =
  let st = Random.State.make [| 0xaa7; 2 |] in
  for _ = 1 to 40 do
    let nvars = 2 + Random.State.int st 4 in
    let base = List.init 4 (fun t -> rand_cons st nvars t) in
    let t = S.create () in
    S.ensure_vars t nvars;
    let base_ok =
      List.for_all
        (fun c ->
          L.is_constant c.L.expr
          || match S.assert_cons t c with S.Feasible -> true | S.Infeasible _ -> false)
        base
    in
    if base_ok && S.check t = S.Feasible then
      for round = 0 to 4 do
        let extra = List.init 3 (fun k -> rand_cons st nvars (100 + (round * 10) + k)) in
        let run () =
          S.push t;
          let v =
            let rec go = function
              | [] -> ( match S.check t with S.Feasible -> `Sat | S.Infeasible _ -> `Unsat)
              | c :: rest -> (
                if L.is_constant c.L.expr then go rest
                else
                  match S.assert_cons t c with
                  | S.Feasible -> go rest
                  | S.Infeasible _ -> `Unsat)
            in
            go extra
          in
          S.pop t;
          v
        in
        let v1 = run () in
        let v2 = run () in
        check bool_t "replay verdict stable" true (v1 = v2)
      done
  done

(* Pivoting with ~2^40-scale coefficients multiplies into > 2^62
   intermediate values: the tableau arithmetic must cross into the
   Bigint fallback and come back out exactly. *)
let test_csr_overflow_fallback () =
  let big = Q.of_int (1 lsl 40) in
  let cs =
    [
      { L.expr = L.of_list [ (big, 0); (Q.of_int 3, 1) ] (Q.neg (Q.of_int (1 lsl 30))); op = L.Ge; tag = 0 };
      { L.expr = L.of_list [ (Q.one, 0) ] (Q.neg (Q.of_ints 1 3)); op = L.Le; tag = 1 };
      { L.expr = L.of_list [ (big, 1); (Q.neg Q.one, 0) ] Q.zero; op = L.Le; tag = 2 };
      { L.expr = L.of_list [ (Q.one, 1) ] Q.zero; op = L.Ge; tag = 3 };
    ]
  in
  match fst (S.solve_system cs) with
  | S.Sat model ->
    check bool_t "big-coefficient model is exact" true (holds_all cs model)
  | S.Unsat _ -> Alcotest.fail "expected sat"
  | S.Unknown _ -> Alcotest.fail "unexpected unknown"

let suite =
  [
    Alcotest.test_case "small-rational differential vs bigint reference" `Quick
      test_small_rational_differential;
    Alcotest.test_case "small-rational canonical representation" `Quick
      test_small_rational_canonical;
    Alcotest.test_case "overflow boundaries at +-2^62" `Quick
      test_overflow_boundary;
    Alcotest.test_case "rounding and string round-trips" `Quick
      test_rounding_differential;
    Alcotest.test_case "csr one-shot vs incremental replay" `Quick
      test_csr_one_shot_vs_incremental;
    Alcotest.test_case "csr warm checkpoint replay" `Quick
      test_csr_warm_replay;
    Alcotest.test_case "csr overflow fallback in pivoting" `Quick
      test_csr_overflow_fallback;
  ]
