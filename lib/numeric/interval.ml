module F = Float_ops

type t = { lo : float; hi : float }

(* Canonical empty interval: lo > hi so every membership test fails. *)
let empty = { lo = Float.infinity; hi = Float.neg_infinity }
let entire = { lo = Float.neg_infinity; hi = Float.infinity }
let is_empty i = i.lo > i.hi

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi then
    invalid_arg "Interval.make: nan endpoint"
  else if lo > hi then invalid_arg "Interval.make: lo > hi"
  else { lo; hi }

let unsafe_make lo hi = { lo; hi }

let of_float x =
  if Float.is_nan x then invalid_arg "Interval.of_float: nan" else { lo = x; hi = x }

let of_ints a b = make (float_of_int a) (float_of_int b)
let zero = of_float 0.0
let one = of_float 1.0
let is_entire i = i.lo = Float.neg_infinity && i.hi = Float.infinity
let mem x i = i.lo <= x && x <= i.hi
let subset a b = is_empty a || (b.lo <= a.lo && a.hi <= b.hi)
let contains_zero i = mem 0.0 i
let width i = if is_empty i then 0.0 else i.hi -. i.lo
let equal a b = (is_empty a && is_empty b) || (a.lo = b.lo && a.hi = b.hi)

let mid i =
  if is_empty i then invalid_arg "Interval.mid: empty interval"
  else if is_entire i then 0.0
  else if i.lo = Float.neg_infinity then Float.min (-1.0) (i.hi *. 2.0 -. 1.0)
  else if i.hi = Float.infinity then Float.max 1.0 (i.lo *. 2.0 +. 1.0)
  else
    let m = 0.5 *. (i.lo +. i.hi) in
    if Float.is_finite m && m >= i.lo && m <= i.hi then m
    else (0.5 *. i.lo) +. (0.5 *. i.hi)

let mag i = if is_empty i then 0.0 else Float.max (Float.abs i.lo) (Float.abs i.hi)

let pp fmt i =
  if is_empty i then Format.pp_print_string fmt "[empty]"
  else Format.fprintf fmt "[%.17g, %.17g]" i.lo i.hi

let inter a b =
  if is_empty a || is_empty b then empty
  else
    let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
    if lo > hi then empty else { lo; hi }

let hull a b =
  if is_empty a then b
  else if is_empty b then a
  else { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let split i =
  if is_empty i then invalid_arg "Interval.split: empty interval"
  else
    let m = mid i in
    if m <= i.lo || m >= i.hi then invalid_arg "Interval.split: point interval"
    else ({ lo = i.lo; hi = m }, { lo = m; hi = i.hi })

let neg i = if is_empty i then empty else { lo = -.i.hi; hi = -.i.lo }

let abs i =
  if is_empty i then empty
  else if i.lo >= 0.0 then i
  else if i.hi <= 0.0 then neg i
  else { lo = 0.0; hi = Float.max (-.i.lo) i.hi }

let add a b =
  if is_empty a || is_empty b then empty
  else { lo = F.add_down a.lo b.lo; hi = F.add_up a.hi b.hi }

let sub a b =
  if is_empty a || is_empty b then empty
  else { lo = F.sub_down a.lo b.hi; hi = F.sub_up a.hi b.lo }

(* 0 * inf must contribute 0, not nan: any real in a degenerate-zero factor
   annihilates the product regardless of the other factor's bounds. *)
let mul_endpoint_down x y = if x = 0.0 || y = 0.0 then 0.0 else F.mul_down x y
let mul_endpoint_up x y = if x = 0.0 || y = 0.0 then 0.0 else F.mul_up x y

let mul a b =
  if is_empty a || is_empty b then empty
  else
    let cand_lo =
      Float.min
        (Float.min (mul_endpoint_down a.lo b.lo) (mul_endpoint_down a.lo b.hi))
        (Float.min (mul_endpoint_down a.hi b.lo) (mul_endpoint_down a.hi b.hi))
    and cand_hi =
      Float.max
        (Float.max (mul_endpoint_up a.lo b.lo) (mul_endpoint_up a.lo b.hi))
        (Float.max (mul_endpoint_up a.hi b.lo) (mul_endpoint_up a.hi b.hi))
    in
    { lo = cand_lo; hi = cand_hi }

let div_endpoint_down x y = if x = 0.0 then 0.0 else F.div_down x y
let div_endpoint_up x y = if x = 0.0 then 0.0 else F.div_up x y

let div a b =
  if is_empty a || is_empty b then empty
  else if b.lo = 0.0 && b.hi = 0.0 then empty
  else if contains_zero b then
    (* The exact result is a union of two rays; return its hull unless one
       side of the divisor is the point zero. *)
    if b.lo = 0.0 then
      (* divisor is [0, hi] with hi > 0 *)
      if a.lo >= 0.0 then { lo = div_endpoint_down a.lo b.hi; hi = Float.infinity }
      else if a.hi <= 0.0 then
        { lo = Float.neg_infinity; hi = div_endpoint_up a.hi b.hi }
      else entire
    else if b.hi = 0.0 then
      if a.lo >= 0.0 then { lo = Float.neg_infinity; hi = div_endpoint_up a.lo b.lo }
      else if a.hi <= 0.0 then { lo = div_endpoint_down a.hi b.lo; hi = Float.infinity }
      else entire
    else entire
  else
    let cand_lo =
      Float.min
        (Float.min (div_endpoint_down a.lo b.lo) (div_endpoint_down a.lo b.hi))
        (Float.min (div_endpoint_down a.hi b.lo) (div_endpoint_down a.hi b.hi))
    and cand_hi =
      Float.max
        (Float.max (div_endpoint_up a.lo b.lo) (div_endpoint_up a.lo b.hi))
        (Float.max (div_endpoint_up a.hi b.lo) (div_endpoint_up a.hi b.hi))
    in
    { lo = cand_lo; hi = cand_hi }

let inv i = div one i

let sqr i =
  if is_empty i then empty
  else
    let a = abs i in
    { lo = mul_endpoint_down a.lo a.lo; hi = mul_endpoint_up a.hi a.hi }

let rec pow_int i n =
  if is_empty i then empty
  else if n < 0 then inv (pow_int i (-n))
  else if n = 0 then one
  else if n = 1 then i
  else if n mod 2 = 0 then
    let a = abs i in
    { lo = pow_down a.lo n; hi = pow_up a.hi n }
  else { lo = pow_down i.lo n; hi = pow_up i.hi n }

(* x^n with widening; exact for 0 and infinities. *)
and pow_down x n =
  if x = 0.0 then 0.0
  else if x = Float.infinity then Float.infinity
  else if x = Float.neg_infinity then
    if n mod 2 = 0 then Float.infinity else Float.neg_infinity
  else F.widen_down (F.widen_down (x ** float_of_int n))

and pow_up x n =
  if x = 0.0 then 0.0
  else if x = Float.infinity then Float.infinity
  else if x = Float.neg_infinity then
    if n mod 2 = 0 then Float.infinity else Float.neg_infinity
  else F.widen_up (F.widen_up (x ** float_of_int n))

(* libm's transcendental functions are faithful to within an ulp or two but
   not provably correctly rounded; step two ulps outward. *)
let libm_down f x =
  let y = f x in
  if Float.is_nan y then Float.neg_infinity else F.widen_down (F.widen_down y)

let libm_up f x =
  let y = f x in
  if Float.is_nan y then Float.infinity else F.widen_up (F.widen_up y)

let sqrt i =
  if is_empty i then empty
  else if i.hi < 0.0 then empty
  else
    let lo = Float.max 0.0 i.lo in
    { lo = Float.max 0.0 (libm_down Float.sqrt lo); hi = libm_up Float.sqrt i.hi }

let exp i =
  if is_empty i then empty
  else
    { lo = Float.max 0.0 (libm_down Float.exp i.lo); hi = libm_up Float.exp i.hi }

let log i =
  if is_empty i then empty
  else if i.hi <= 0.0 then empty
  else
    let lo = if i.lo <= 0.0 then Float.neg_infinity else libm_down Float.log i.lo in
    { lo; hi = libm_up Float.log i.hi }

let two_pi = 6.283185307179586
let pi = 3.141592653589793

(* Trigonometric enclosures.  The safe fallback [-1,1] is used whenever the
   interval is wide enough (or close enough to wrapping) that locating the
   extrema of cos/sin inside it cannot be done reliably in floats. *)
let cos i =
  if is_empty i then empty
  else if not (Float.is_finite i.lo && Float.is_finite i.hi) then make (-1.0) 1.0
  else if width i >= two_pi -. 0.01 then make (-1.0) 1.0
  else begin
    let clo = libm_down Float.cos i.lo
    and chi = libm_up Float.cos i.hi
    and clo' = libm_up Float.cos i.lo
    and chi' = libm_down Float.cos i.hi in
    let lo = ref (Float.min clo chi') and hi = ref (Float.max clo' chi) in
    (* cos attains 1 at 2k*pi and -1 at (2k+1)*pi.  Test whether a multiple
       lies in the (slightly inflated, for soundness) interval. *)
    let has_multiple offset =
      let a = (i.lo -. offset) /. two_pi -. 1e-9
      and b = (i.hi -. offset) /. two_pi +. 1e-9 in
      Float.of_int (int_of_float (Float.ceil a)) <= b
    in
    if has_multiple 0.0 then hi := 1.0;
    if has_multiple pi then lo := -1.0;
    make (Float.max (-1.0) (Float.min !lo !hi)) (Float.min 1.0 (Float.max !lo !hi))
  end

let sin i =
  if is_empty i then empty
  else cos (sub (of_float (pi /. 2.0)) (add i (make (-1e-16) 1e-16)))

(* Float enclosure of a rational, corrected by exact comparison:
   Rational.to_float may be off by several ulps for big numerators. Zero
   is the point [0, 0], so that a division by the constant 0 is empty. *)
let of_rational q =
  let module Q = Rational in
  let approx = Q.to_float q in
  if Q.is_zero q then zero
  else if Float.is_nan approx then entire
  else begin
    let rec fix_down x =
      if x = Float.neg_infinity then x
      else if Q.leq (Q.of_float x) q then x
      else fix_down (F.next_down x)
    in
    let rec fix_up x =
      if x = Float.infinity then x
      else if Q.geq (Q.of_float x) q then x
      else fix_up (F.next_up x)
    in
    (* Beyond the float range the enclosure is open on that side; the
       other side starts at the largest finite float, so neither walk
       crosses the whole float line. *)
    let seed_lo = if Float.is_finite approx then approx else Float.min approx Float.max_float in
    let seed_hi =
      if Float.is_finite approx then approx else Float.max approx (-.Float.max_float)
    in
    let lo = fix_down (F.next_down (F.next_down seed_lo)) in
    let hi = fix_up (F.next_up (F.next_up seed_hi)) in
    { lo; hi }
  end

let of_rational_bounds lo hi =
  let l = match lo with None -> Float.neg_infinity | Some q -> (of_rational q).lo in
  let h = match hi with None -> Float.infinity | Some q -> (of_rational q).hi in
  if l > h then empty else { lo = l; hi = h }
