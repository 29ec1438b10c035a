module Q = Absolver_numeric.Rational
module I = Absolver_numeric.Interval
module Linexpr = Absolver_lp.Linexpr

type t =
  | Const of Q.t
  | Var of int
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Pow of t * int
  | Sqrt of t
  | Exp of t
  | Log of t
  | Sin of t
  | Cos of t

let const q = Const q
let of_int n = Const (Q.of_int n)
let var v = Var v

let neg = function
  | Const q -> Const (Q.neg q)
  | Neg e -> e
  | e -> Neg e

let add a b =
  match (a, b) with
  | Const x, Const y -> Const (Q.add x y)
  | Const x, e when Q.is_zero x -> e
  | e, Const x when Q.is_zero x -> e
  | _ -> Add (a, b)

let sub a b =
  match (a, b) with
  | Const x, Const y -> Const (Q.sub x y)
  | e, Const x when Q.is_zero x -> e
  | Const x, e when Q.is_zero x -> neg e
  | _ -> Sub (a, b)

let mul a b =
  match (a, b) with
  | Const x, Const y -> Const (Q.mul x y)
  | Const x, _ when Q.is_zero x -> Const Q.zero
  | _, Const x when Q.is_zero x -> Const Q.zero
  | Const x, e when Q.equal x Q.one -> e
  | e, Const x when Q.equal x Q.one -> e
  | _ -> Mul (a, b)

let div a b =
  match (a, b) with
  | Const x, Const y when not (Q.is_zero y) -> Const (Q.div x y)
  | e, Const x when Q.equal x Q.one -> e
  | _ -> Div (a, b)

let pow e n =
  match (e, n) with
  | _, 0 -> Const Q.one
  | _, 1 -> e
  | Const q, _ when n >= 0 || not (Q.is_zero q) -> Const (Q.pow q n)
  | _ -> Pow (e, n)

let sqrt e = Sqrt e
let exp e = Exp e
let log e = Log e
let sin e = Sin e
let cos e = Cos e
let sum = function [] -> Const Q.zero | e :: rest -> List.fold_left add e rest

let rec vars_acc acc = function
  | Const _ -> acc
  | Var v -> v :: acc
  | Neg e | Pow (e, _) | Sqrt e | Exp e | Log e | Sin e | Cos e -> vars_acc acc e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> vars_acc (vars_acc acc a) b

let vars e = List.sort_uniq compare (vars_acc [] e)

let rec size = function
  | Const _ | Var _ -> 1
  | Neg e | Pow (e, _) | Sqrt e | Exp e | Log e | Sin e | Cos e -> 1 + size e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> 1 + size a + size b

let compare = Stdlib.compare
let equal a b = compare a b = 0

(* A hash over the whole tree: [Hashtbl.hash] looks at a bounded number
   of nodes, so large terms that share a prefix would share a bucket. *)
let rec hash e =
  let mix h x = (h * 65599) + x in
  match e with
  | Const q -> mix 1 (Hashtbl.hash q)
  | Var v -> mix 2 v
  | Neg e -> mix 3 (hash e)
  | Add (a, b) -> mix (mix 4 (hash a)) (hash b)
  | Sub (a, b) -> mix (mix 5 (hash a)) (hash b)
  | Mul (a, b) -> mix (mix 6 (hash a)) (hash b)
  | Div (a, b) -> mix (mix 7 (hash a)) (hash b)
  | Pow (e, n) -> mix (mix 8 (hash e)) n
  | Sqrt e -> mix 9 (hash e)
  | Exp e -> mix 10 (hash e)
  | Log e -> mix 11 (hash e)
  | Sin e -> mix 12 (hash e)
  | Cos e -> mix 13 (hash e)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash e = hash e land max_int
end)

module Atom_tbl = Hashtbl.Make (struct
  type nonrec t = t * Linexpr.op

  let equal (a, op) (b, op') = op = op' && equal a b
  let hash (e, op) = ((hash e * 5) + Hashtbl.hash op) land max_int
end)

let rec pp ?(name = fun v -> Printf.sprintf "x%d" v) () fmt e =
  let pp = pp ~name () in
  match e with
  | Const q -> Q.pp fmt q
  | Var v -> Format.pp_print_string fmt (name v)
  | Neg e -> Format.fprintf fmt "-(%a)" pp e
  | Add (a, b) -> Format.fprintf fmt "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf fmt "(%a - %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf fmt "(%a * %a)" pp a pp b
  | Div (a, (Const q as b)) when not (Q.is_integer q) ->
    (* [x / 7/3] would read back as [(x / 7) / 3] *)
    Format.fprintf fmt "(%a / (%a))" pp a pp b
  | Div (a, b) -> Format.fprintf fmt "(%a / %a)" pp a pp b
  | Pow (e, n) -> Format.fprintf fmt "(%a)^%d" pp e n
  | Sqrt e -> Format.fprintf fmt "sqrt(%a)" pp e
  | Exp e -> Format.fprintf fmt "exp(%a)" pp e
  | Log e -> Format.fprintf fmt "log(%a)" pp e
  | Sin e -> Format.fprintf fmt "sin(%a)" pp e
  | Cos e -> Format.fprintf fmt "cos(%a)" pp e

let to_string ?name e = Format.asprintf "%a" (pp ?name ()) e

let rec eval_float env = function
  | Const q -> Q.to_float q
  | Var v -> env v
  | Neg e -> -.eval_float env e
  | Add (a, b) -> eval_float env a +. eval_float env b
  | Sub (a, b) -> eval_float env a -. eval_float env b
  | Mul (a, b) -> eval_float env a *. eval_float env b
  | Div (a, b) -> eval_float env a /. eval_float env b
  | Pow (e, n) -> eval_float env e ** float_of_int n
  | Sqrt e -> Float.sqrt (eval_float env e)
  | Exp e -> Float.exp (eval_float env e)
  | Log e -> Float.log (eval_float env e)
  | Sin e -> Float.sin (eval_float env e)
  | Cos e -> Float.cos (eval_float env e)

let rec eval_interval env = function
  | Const q -> I.of_rational q
  | Var v -> env v
  | Neg e -> I.neg (eval_interval env e)
  | Add (a, b) -> I.add (eval_interval env a) (eval_interval env b)
  | Sub (a, b) -> I.sub (eval_interval env a) (eval_interval env b)
  | Mul (a, b) -> I.mul (eval_interval env a) (eval_interval env b)
  | Div (a, b) -> I.div (eval_interval env a) (eval_interval env b)
  | Pow (e, n) -> I.pow_int (eval_interval env e) n
  | Sqrt e -> I.sqrt (eval_interval env e)
  | Exp e -> I.exp (eval_interval env e)
  | Log e -> I.log (eval_interval env e)
  | Sin e -> I.sin (eval_interval env e)
  | Cos e -> I.cos (eval_interval env e)

let rec eval_exact env expr =
  let ( let* ) = Option.bind in
  match expr with
  | Const q -> Some q
  | Var v -> Some (env v)
  | Neg e ->
    let* x = eval_exact env e in
    Some (Q.neg x)
  | Add (a, b) ->
    let* x = eval_exact env a in
    let* y = eval_exact env b in
    Some (Q.add x y)
  | Sub (a, b) ->
    let* x = eval_exact env a in
    let* y = eval_exact env b in
    Some (Q.sub x y)
  | Mul (a, b) ->
    let* x = eval_exact env a in
    let* y = eval_exact env b in
    Some (Q.mul x y)
  | Div (a, b) ->
    let* x = eval_exact env a in
    let* y = eval_exact env b in
    if Q.is_zero y then None else Some (Q.div x y)
  | Pow (e, n) ->
    let* x = eval_exact env e in
    if n >= 0 then Some (Q.pow x n)
    else if Q.is_zero x then None
    else Some (Q.pow x n)
  | Sqrt _ | Exp _ | Log _ | Sin _ | Cos _ -> None

let rec linearize = function
  | Const q -> Some (Linexpr.constant q)
  | Var v -> Some (Linexpr.var v)
  | Neg e -> Option.map Linexpr.neg (linearize e)
  | Add (a, b) -> (
    match (linearize a, linearize b) with
    | Some x, Some y -> Some (Linexpr.add x y)
    | _ -> None)
  | Sub (a, b) -> (
    match (linearize a, linearize b) with
    | Some x, Some y -> Some (Linexpr.sub x y)
    | _ -> None)
  | Mul (a, b) -> (
    match (linearize a, linearize b) with
    | Some x, Some y ->
      if Linexpr.is_constant x then Some (Linexpr.scale (Linexpr.const x) y)
      else if Linexpr.is_constant y then Some (Linexpr.scale (Linexpr.const y) x)
      else None
    | _ -> None)
  | Div (a, b) -> (
    match (linearize a, linearize b) with
    | Some x, Some y ->
      if Linexpr.is_constant y && not (Q.is_zero (Linexpr.const y)) then
        Some (Linexpr.scale (Q.inv (Linexpr.const y)) x)
      else None
    | _ -> None)
  | Pow (e, n) -> (
    match linearize e with
    | Some x when Linexpr.is_constant x && n >= 0 ->
      Some (Linexpr.constant (Q.pow (Linexpr.const x) n))
    | Some x when n = 1 -> Some x
    | _ -> None)
  | Sqrt _ | Exp _ | Log _ | Sin _ | Cos _ -> None

let is_linear e = Option.is_some (linearize e)

type rel = { expr : t; op : Linexpr.op; tag : int }

let pp_rel ?name () fmt r =
  Format.fprintf fmt "%a %a 0" (pp ?name ()) r.expr Linexpr.pp_op r.op

let holds_float ?(tol = 1e-9) env r =
  let v = eval_float env r.expr in
  if not (Float.is_finite v) then false
  else
    match r.op with
    | Linexpr.Le -> v <= tol
    | Linexpr.Lt -> v < tol
    | Linexpr.Ge -> v >= -.tol
    | Linexpr.Gt -> v > -.tol
    | Linexpr.Eq -> Float.abs v <= tol

let certainly_holds env r =
  let i = eval_interval env r.expr in
  if I.is_empty i then false
  else
    match r.op with
    | Linexpr.Le -> i.I.hi <= 0.0
    | Linexpr.Lt -> i.I.hi < 0.0
    | Linexpr.Ge -> i.I.lo >= 0.0
    | Linexpr.Gt -> i.I.lo > 0.0
    | Linexpr.Eq -> i.I.lo = 0.0 && i.I.hi = 0.0

let certainly_violated env r =
  let i = eval_interval env r.expr in
  if I.is_empty i then false
  else
    match r.op with
    | Linexpr.Le -> i.I.lo > 0.0
    | Linexpr.Lt -> i.I.lo >= 0.0
    | Linexpr.Ge -> i.I.hi < 0.0
    | Linexpr.Gt -> i.I.hi <= 0.0
    | Linexpr.Eq -> not (I.contains_zero i)

let negate_rel r =
  match r.op with
  | Linexpr.Eq ->
    [ { r with op = Linexpr.Lt }; { r with op = Linexpr.Gt } ]
  | op -> [ { r with op = Linexpr.negate_op op } ]
