module B = Bigint

(* Small-value-inlined rationals (DESIGN.md Sec. 16).

   A rational is stored flat as two native ints whenever its normalized
   numerator and denominator both fit (anything but [min_int], i.e. 62
   bits of magnitude): one 3-word [S] block instead of a record holding
   two limb-array-backed {!Bigint}s.  Arithmetic on two [S] values runs
   entirely in machine integers with explicit overflow checks and falls
   back to the Bigint path only when a check trips; Bigint results are
   demoted back through {!of_big}, so the representation is canonical —
   a value fits the small case iff it is stored in it.  Canonicality is
   load-bearing: structural equality, polymorphic compare and hashing
   over containers of rationals (Linexpr maps, nlp expressions) remain
   consistent across construction routes. *)

type t =
  | S of { n : int; d : int }
      (* d > 0, gcd(|n|,d) = 1, neither component is min_int *)
  | Big of { num : B.t; den : B.t }
      (* normalized, and at least one component exceeds a native int *)

let zero = S { n = 0; d = 1 }
let one = S { n = 1; d = 1 }
let minus_one = S { n = -1; d = 1 }

(* Demote a normalized bigint pair into the small case when it fits. *)
let of_big num den =
  match (B.to_int_opt num, B.to_int_opt den) with
  | Some n, Some d -> S { n; d }
  | _ -> Big { num; den }

let normalize_big num den =
  if B.is_zero den then raise Division_by_zero
  else if B.is_zero num then zero
  else
    let num, den =
      if B.sign den < 0 then (B.neg num, B.neg den) else (num, den)
    in
    if B.is_one den then of_big num den
    else
      let g = B.gcd num den in
      if B.is_one g then of_big num den
      else of_big (B.div num g) (B.div den g)

let to_big = function
  | S { n; d } -> (B.of_int n, B.of_int d)
  | Big { num; den } -> (num, den)

(* ------------------------------------------------------------------ *)
(* Machine-int helpers.  [min_int] doubles as the overflow sentinel:    *)
(* it is never a valid small component (its magnitude needs 63 bits),   *)
(* so any helper returning it sends the caller to the Bigint path.      *)

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let add_chk a b =
  let s = a + b in
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then min_int else s

let sub_chk a b =
  let s = a - b in
  if (a >= 0) <> (b >= 0) && (s >= 0) <> (a >= 0) then min_int else s

let mul_chk a b =
  if a = 0 || b = 0 then 0
  else if a = min_int || b = min_int then min_int
  else if b = -1 then -a
  else
    let p = a * b in
    (* Exact overflow test: a wrapped product never divides back.  [b]
       is neither 0 nor -1 here, so the division cannot trap. *)
    if p / b = a then p else min_int

(* d > 0, n <> min_int, not yet reduced. *)
let small n d =
  if n = 0 then zero
  else
    let g = gcd_int (Stdlib.abs n) d in
    if g = 1 then S { n; d } else S { n = n / g; d = d / g }

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)

let make num den = normalize_big num den
let of_bigint n = of_big n B.one

let of_int n =
  if n = min_int then Big { num = B.of_int n; den = B.one } else S { n; d = 1 }

let of_ints n d =
  if d = 0 then raise Division_by_zero
  else if n = min_int || d = min_int then
    normalize_big (B.of_int n) (B.of_int d)
  else if d < 0 then small (-n) (-d)
  else small n d

(* ------------------------------------------------------------------ *)
(* Observation.                                                        *)

let num = function S { n; _ } -> B.of_int n | Big { num; _ } -> num
let den = function S { d; _ } -> B.of_int d | Big { den; _ } -> den

let sign = function
  | S { n; _ } -> compare n 0
  | Big { num; _ } -> B.sign num

let is_zero = function S { n; _ } -> n = 0 | Big _ -> false
let is_integer = function S { d; _ } -> d = 1 | Big { den; _ } -> B.is_one den

let neg = function
  | S { n; d } -> S { n = -n; d }
  | Big { num; den } -> Big { num = B.neg num; den }

let abs = function
  | S { n; d } -> if n < 0 then S { n = -n; d } else S { n; d }
  | Big { num; den } -> Big { num = B.abs num; den }

(* ------------------------------------------------------------------ *)
(* Arithmetic.                                                         *)

(* Knuth 4.5.1 at the bigint level: reduce through the gcd of the
   denominators first.  The expensive case to avoid is a gcd of
   double-width products — [g0] and [g1] only ever see operand-width
   values ([g1] divides [g0]), where {!B.gcd}'s native fast path
   usually applies. [op] is {!B.add} for the sum, {!B.sub} for the
   difference. *)
let big_combine op a b =
  let an, ad = to_big a and bn, bd = to_big b in
  if B.equal ad bd then normalize_big (op an bn) ad
  else
    let g0 = B.gcd ad bd in
    if B.is_one g0 then
      (* coprime denominators: the result is already in lowest terms *)
      of_big (op (B.mul an bd) (B.mul bn ad)) (B.mul ad bd)
    else
      let ad' = B.div ad g0 and bd' = B.div bd g0 in
      let t = op (B.mul an bd') (B.mul bn ad') in
      if B.is_zero t then zero
      else
        let g1 = B.gcd t g0 in
        if B.is_one g1 then of_big t (B.mul ad' bd)
        else of_big (B.div t g1) (B.mul ad' (B.div bd g1))

let big_add = big_combine B.add
let big_sub = big_combine B.sub

let add a b =
  match (a, b) with
  | S x, S y ->
    if x.n = 0 then b
    else if y.n = 0 then a
    else if x.d = y.d then begin
      let n = add_chk x.n y.n in
      if n = min_int then big_add a b
      else if n = 0 then zero
      else
        let g = gcd_int (Stdlib.abs n) x.d in
        if g = 1 then S { n; d = x.d } else S { n = n / g; d = x.d / g }
    end
    else begin
      (* Knuth 4.5.1: reduce through g0 = gcd of the denominators; when
         g0 = 1 the result is already coprime, otherwise the remaining
         common factor of t and the denominator divides g0. *)
      let g0 = gcd_int x.d y.d in
      let d1' = x.d / g0 and d2' = y.d / g0 in
      let t1 = mul_chk x.n d2' and t2 = mul_chk y.n d1' in
      if t1 = min_int || t2 = min_int then big_add a b
      else
        let t = add_chk t1 t2 in
        if t = min_int then big_add a b
        else if t = 0 then zero
        else
          let g1 = if g0 = 1 then 1 else gcd_int (Stdlib.abs t) g0 in
          let d = mul_chk d1' (y.d / g1) in
          if d = min_int then big_add a b else S { n = t / g1; d }
    end
  | _ -> big_add a b

(* [add] with the signs of [b]'s terms flipped, so that no negated copy
   of [b] is built. *)
let sub a b =
  match (a, b) with
  | S x, S y ->
    if y.n = 0 then a
    else if x.n = 0 then neg b
    else if x.d = y.d then begin
      let n = sub_chk x.n y.n in
      if n = min_int then big_sub a b
      else if n = 0 then zero
      else
        let g = gcd_int (Stdlib.abs n) x.d in
        if g = 1 then S { n; d = x.d } else S { n = n / g; d = x.d / g }
    end
    else begin
      let g0 = gcd_int x.d y.d in
      let d1' = x.d / g0 and d2' = y.d / g0 in
      let t1 = mul_chk x.n d2' and t2 = mul_chk y.n d1' in
      if t1 = min_int || t2 = min_int then big_sub a b
      else
        let t = sub_chk t1 t2 in
        if t = min_int then big_sub a b
        else if t = 0 then zero
        else
          let g1 = if g0 = 1 then 1 else gcd_int (Stdlib.abs t) g0 in
          let d = mul_chk d1' (y.d / g1) in
          if d = min_int then big_sub a b else S { n = t / g1; d }
    end
  | _ -> big_sub a b

(* Cross-reduce before multiplying: with canonical operands the product
   of the reduced parts is coprime by construction, so no gcd of the
   double-width products is ever needed — the two gcds below only see
   operand-width values. *)
let big_mul a b =
  let an, ad = to_big a and bn, bd = to_big b in
  if B.is_zero an || B.is_zero bn then zero
  else
    let g1 = B.gcd an bd and g2 = B.gcd bn ad in
    let an = if B.is_one g1 then an else B.div an g1
    and bd = if B.is_one g1 then bd else B.div bd g1
    and bn = if B.is_one g2 then bn else B.div bn g2
    and ad = if B.is_one g2 then ad else B.div ad g2 in
    of_big (B.mul an bn) (B.mul ad bd)

let mul a b =
  match (a, b) with
  | S x, S y ->
    if x.n = 0 || y.n = 0 then zero
    else begin
      let g1 = gcd_int (Stdlib.abs x.n) y.d in
      let g2 = gcd_int (Stdlib.abs y.n) x.d in
      let n1 = x.n / g1 and n2 = y.n / g2 in
      let d1 = x.d / g2 and d2 = y.d / g1 in
      let n = mul_chk n1 n2 in
      let d = mul_chk d1 d2 in
      if n = min_int || d = min_int then
        (* overflow: the reduced parts are already pairwise coprime, so
           multiply at bigint width and skip normalization entirely *)
        of_big
          (B.mul (B.of_int n1) (B.of_int n2))
          (B.mul (B.of_int d1) (B.of_int d2))
      else S { n; d }
    end
  | _ -> big_mul a b

let inv = function
  | S { n; _ } when n = 0 -> raise Division_by_zero
  | S { n; d } -> if n < 0 then S { n = -d; d = -n } else S { n = d; d = n }
  | Big { num; den } -> normalize_big den num

let div a b =
  match (a, b) with
  | _, S { n = 0; _ } -> raise Division_by_zero
  | S _, S _ -> mul a (inv b)
  | _ ->
    let an, ad = to_big a and bn, bd = to_big b in
    normalize_big (B.mul an bd) (B.mul ad bn)

let mul_int t i = mul t (of_int i)

(* ------------------------------------------------------------------ *)
(* Comparison.                                                         *)

let big_compare a b =
  let an, ad = to_big a and bn, bd = to_big b in
  (* Denominators are positive, so cross-multiplication preserves order. *)
  B.compare (B.mul an bd) (B.mul bn ad)

let compare a b =
  match (a, b) with
  | S x, S y ->
    if x.d = y.d then Int.compare x.n y.n
    else
      let sx = Stdlib.compare x.n 0 and sy = Stdlib.compare y.n 0 in
      if sx <> sy then Int.compare sx sy
      else
        let l = mul_chk x.n y.d and r = mul_chk y.n x.d in
        if l = min_int || r = min_int then big_compare a b
        else Int.compare l r
  | _ -> big_compare a b

let equal a b =
  match (a, b) with
  | S x, S y -> x.n = y.n && x.d = y.d
  | Big x, Big y -> B.equal x.num y.num && B.equal x.den y.den
  | _ -> false (* canonical representation: cases never overlap *)

let lt a b = compare a b < 0
let leq a b = compare a b <= 0
let gt a b = compare a b > 0
let geq a b = compare a b >= 0
let min a b = if leq a b then a else b
let max a b = if geq a b then a else b

(* ------------------------------------------------------------------ *)
(* Integer rounding.                                                   *)

let floor = function
  | S { n; d } ->
    let q = n / d in
    B.of_int (if n < 0 && n mod d <> 0 then q - 1 else q)
  | Big { num; den } ->
    let q, r = B.divmod num den in
    if B.sign r < 0 then B.pred q else q

let ceil = function
  | S { n; d } ->
    let q = n / d in
    B.of_int (if n > 0 && n mod d <> 0 then q + 1 else q)
  | Big { num; den } ->
    let q, r = B.divmod num den in
    if B.sign r > 0 then B.succ q else q

let pow t e =
  let rec go acc b e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
  in
  if e >= 0 then go one t e
  else if is_zero t then raise Division_by_zero
  else go one (inv t) (-e)

(* ------------------------------------------------------------------ *)
(* Conversions.                                                        *)

let to_float = function
  | S { n; d } -> float_of_int n /. float_of_int d
  | Big { num; den } -> B.to_float num /. B.to_float den

let of_float f =
  if not (Float.is_finite f) then
    invalid_arg "Rational.of_float: not a finite float";
  if f = 0.0 then zero
  else begin
    (* f = m * 2^(e - 53) with m a 53-bit integer: exact by construction.
       Stripping the mantissa's trailing zeros makes the pair coprime up
       front (odd numerator, power-of-two denominator), so no gcd runs
       and small magnitudes stay on the inlined representation. *)
    let m, e = Float.frexp f in
    let m53 = Int64.to_int (Int64.of_float (Float.ldexp m 53)) in
    let rec tz n k = if n land 1 = 0 then tz (n asr 1) (k + 1) else k in
    let t = tz (Stdlib.abs m53) 0 in
    let m' = m53 asr t in
    let shift = e - 53 + t in
    if shift >= 0 then
      if shift <= 8 then S { n = m' lsl shift; d = 1 }
      else of_bigint (B.shift_left (B.of_int m') shift)
    else if -shift <= 61 then S { n = m'; d = 1 lsl -shift }
    else Big { num = B.of_int m'; den = B.shift_left B.one (-shift) }
  end

let rec decimal_digits s i acc =
  if i = String.length s then acc
  else
    match s.[i] with
    | '0' .. '9' as c -> decimal_digits s (i + 1) ((acc * 10) + Char.code c - Char.code '0')
    | _ -> -1

let max_decimal_exponent = 1000

(* The exponent after [s.[i]], within [max_decimal_exponent] (see the
   interface): a larger one would have the parse raise ten to it. *)
let decimal_exponent s i =
  match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
  | Some e when e >= -max_decimal_exponent && e <= max_decimal_exponent -> e
  | Some _ -> invalid_arg "Rational.of_decimal_string: exponent out of range"
  | None -> invalid_arg "Rational.of_decimal_string: malformed exponent"

let parse_decimal s =
  let s = String.trim s in
  if s = "" then invalid_arg "Rational.of_decimal_string: empty string";
  match String.index_opt s '/' with
  | Some i ->
    let n = B.of_string (String.sub s 0 i) in
    let d = B.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    make n d
  | None ->
    let mantissa, exponent =
      match String.index_opt s 'e' with
      | Some i -> (String.sub s 0 i, decimal_exponent s i)
      | None -> (
        match String.index_opt s 'E' with
        | Some i -> (String.sub s 0 i, decimal_exponent s i)
        | None -> (s, 0))
    in
    let negated, mantissa =
      if mantissa <> "" && mantissa.[0] = '-' then
        (true, String.sub mantissa 1 (String.length mantissa - 1))
      else if mantissa <> "" && mantissa.[0] = '+' then
        (false, String.sub mantissa 1 (String.length mantissa - 1))
      else (false, mantissa)
    in
    let int_part, frac_part =
      match String.index_opt mantissa '.' with
      | Some i ->
        ( String.sub mantissa 0 i,
          String.sub mantissa (i + 1) (String.length mantissa - i - 1) )
      | None -> (mantissa, "")
    in
    if int_part = "" && frac_part = "" then
      invalid_arg "Rational.of_decimal_string: no digits";
    let digits = int_part ^ frac_part in
    let n = B.of_string (if digits = "" then "0" else digits) in
    let scale = String.length frac_part - exponent in
    let v =
      if scale <= 0 then of_bigint (B.mul n (B.pow B.ten (-scale)))
      else make n (B.pow B.ten scale)
    in
    if negated then neg v else v

let of_decimal_string s =
  (* An optional minus and at most 18 digits, the common case, fit a
     native int and are read directly. *)
  let d0 = if s <> "" && s.[0] = '-' then 1 else 0 in
  let len = String.length s - d0 in
  let v = if len > 0 && len <= 18 then decimal_digits s d0 0 else -1 in
  if v >= 0 then S { n = (if d0 = 1 then -v else v); d = 1 } else parse_decimal s

let to_string = function
  | S { n; d } ->
    if d = 1 then string_of_int n
    else string_of_int n ^ "/" ^ string_of_int d
  | Big { num; den } ->
    if B.is_one den then B.to_string num
    else B.to_string num ^ "/" ^ B.to_string den

let pp fmt t = Format.pp_print_string fmt (to_string t)
