module Q = Rational

(* Flat representation (DESIGN.md Sec. 16): almost every value the
   simplex manipulates is a plain rational (non-strict bounds, most
   assignments), so the delta coefficient is only materialized when it
   is nonzero.  [Rat r] is one block smaller than the old {r; k} record
   and skips the [k] arithmetic entirely on the common path. *)
type t =
  | Rat of Q.t (* r + 0*delta *)
  | Del of { r : Q.t; k : Q.t } (* invariant: k <> 0 *)

let make r k = if Q.is_zero k then Rat r else Del { r; k }
let of_rational r = Rat r
let of_int n = Rat (Q.of_int n)
let zero = Rat Q.zero
let delta = Del { r = Q.zero; k = Q.one }
let r = function Rat r -> r | Del { r; _ } -> r
let k = function Rat _ -> Q.zero | Del { k; _ } -> k

let add a b =
  match (a, b) with
  | Rat x, Rat y -> Rat (Q.add x y)
  | Rat x, Del { r; k } | Del { r; k }, Rat x -> Del { r = Q.add x r; k }
  | Del x, Del y -> make (Q.add x.r y.r) (Q.add x.k y.k)

let neg = function
  | Rat x -> Rat (Q.neg x)
  | Del { r; k } -> Del { r = Q.neg r; k = Q.neg k }

let sub a b = add a (neg b)

let scale c a =
  if Q.is_zero c then zero
  else
    match a with
    | Rat x -> Rat (Q.mul c x)
    | Del { r; k } -> Del { r = Q.mul c r; k = Q.mul c k }

let compare a b =
  match (a, b) with
  | Rat x, Rat y -> Q.compare x y
  | _ ->
    let c = Q.compare (r a) (r b) in
    if c <> 0 then c else Q.compare (k a) (k b)

let equal a b = compare a b = 0
let lt a b = compare a b < 0
let leq a b = compare a b <= 0
let min a b = if leq a b then a else b
let max a b = if leq a b then b else a

let pp fmt t =
  match t with
  | Rat x -> Q.pp fmt x
  | Del { r; k } -> Format.fprintf fmt "%a + %a*delta" Q.pp r Q.pp k

(* For each symbolic ordering r1 + k1*d <= r2 + k2*d with k1 > k2 the
   concrete delta must satisfy d <= (r2 - r1) / (k1 - k2); take the minimum
   over all such constraints, capped at 1. *)
let concretize_delta pairs =
  let bound =
    List.fold_left
      (fun acc (lhs, rhs) ->
        let k1 = k lhs and k2 = k rhs in
        if Q.gt k1 k2 then
          let limit = Q.div (Q.sub (r rhs) (r lhs)) (Q.sub k1 k2) in
          Q.min acc limit
        else acc)
      Q.one pairs
  in
  if Q.sign bound > 0 then Q.div bound (Q.of_int 2) else Q.of_ints 1 2

let substitute d t =
  match t with Rat x -> x | Del { r; k } -> Q.add r (Q.mul d k)
