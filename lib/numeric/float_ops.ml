(* Stepping to the adjacent float through the IEEE-754 bit pattern: for
   positive floats incrementing the bit pattern yields the next float up,
   for negative floats it yields the next float down. *)

let next_up x =
  if Float.is_nan x then x
  else if x = Float.infinity then x
  else if x = 0.0 then Float.ldexp 1.0 (-1074)
  else
    let bits = Int64.bits_of_float x in
    if x > 0.0 then Int64.float_of_bits (Int64.succ bits)
    else Int64.float_of_bits (Int64.pred bits)

let next_down x =
  if Float.is_nan x then x
  else if x = Float.neg_infinity then x
  else if x = 0.0 then -.Float.ldexp 1.0 (-1074)
  else
    let bits = Int64.bits_of_float x in
    if x > 0.0 then Int64.float_of_bits (Int64.pred bits)
    else Int64.float_of_bits (Int64.succ bits)

(* For |x| in [2^-969, max_float], x -/+ |x| (2^-53 + 2^-105) rounds to the
   adjacent float, no bit pattern needed: the product is normal, and it is
   more than half and less than one and a half of the gap to that
   neighbour, also where the gap halves below a power of two. *)
let phi = 0x1.0000000000001p-53

(* Round-to-nearest may overflow a finite true result to an infinity, so an
   infinite result on the inward side must fall back to +-max_float to stay
   a valid bound. *)
let widen_down x =
  let a = Float.abs x in
  if a >= 0x1p-969 && a <= Float.max_float then x -. (a *. phi)
  else if x = Float.infinity then Float.max_float
  else if x = Float.neg_infinity then x
  else next_down x

let widen_up x =
  let a = Float.abs x in
  if a >= 0x1p-969 && a <= Float.max_float then x +. (a *. phi)
  else if x = Float.neg_infinity then -.Float.max_float
  else if x = Float.infinity then x
  else next_up x
let add_down a b = widen_down (a +. b)
let add_up a b = widen_up (a +. b)
let sub_down a b = widen_down (a -. b)
let sub_up a b = widen_up (a -. b)
let mul_down a b = widen_down (a *. b)
let mul_up a b = widen_up (a *. b)
let div_down a b = widen_down (a /. b)
let div_up a b = widen_up (a /. b)
