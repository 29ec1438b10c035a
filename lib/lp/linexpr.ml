module Q = Absolver_numeric.Rational
module IM = Map.Make (Int)

type var = int
type t = { terms : Q.t IM.t; const : Q.t }

let zero = { terms = IM.empty; const = Q.zero }
let constant c = { terms = IM.empty; const = c }

let normalize_terms terms = IM.filter (fun _ q -> not (Q.is_zero q)) terms

let var ?(coeff = Q.one) v =
  if Q.is_zero coeff then zero else { terms = IM.singleton v coeff; const = Q.zero }

let of_list pairs const =
  let terms =
    List.fold_left
      (fun acc (q, v) ->
        let cur = Option.value ~default:Q.zero (IM.find_opt v acc) in
        IM.add v (Q.add cur q) acc)
      IM.empty pairs
  in
  { terms = normalize_terms terms; const }

let coeff t v = Option.value ~default:Q.zero (IM.find_opt v t.terms)
let const t = t.const
let coeffs t = IM.bindings t.terms
let is_constant t = IM.is_empty t.terms
let vars t = List.map fst (coeffs t)

let add a b =
  let terms =
    IM.union (fun _ x y -> let s = Q.add x y in if Q.is_zero s then None else Some s)
      a.terms b.terms
  in
  { terms; const = Q.add a.const b.const }

let scale q t =
  if Q.is_zero q then zero
  else { terms = IM.map (Q.mul q) t.terms; const = Q.mul q t.const }

let neg t = scale Q.minus_one t

(* [add a (neg b)] without building [neg b]: each of [b]'s terms is
   merged into [a] with its sign flipped. ([IM.union] cannot do this: it
   keeps the keys only [b] has as they are.) *)
let sub a b =
  let terms =
    IM.fold
      (fun v q acc ->
        IM.update v
          (function
            | None -> Some (Q.neg q)
            | Some x ->
              let d = Q.sub x q in
              if Q.is_zero d then None else Some d)
          acc)
      b.terms a.terms
  in
  { terms; const = Q.sub a.const b.const }

let add_term t q v = add t (var ~coeff:q v)
let set_const t c = { t with const = c }
let drop_const t = { t with const = Q.zero }

let eval env t =
  IM.fold (fun v q acc -> Q.add acc (Q.mul q (env v))) t.terms t.const

let compare a b =
  let c = Q.compare a.const b.const in
  if c <> 0 then c else IM.compare Q.compare a.terms b.terms

let equal a b = compare a b = 0

module Form_tbl = Hashtbl.Make (struct
  type t = (var * Q.t) list

  let equal = List.equal (fun (v, a) (w, b) -> v = w && Q.equal a b)

  let hash =
    List.fold_left (fun h (v, q) -> (h * 65599) + (v * 31) + Hashtbl.hash q) 0
end)

let pp ?(name = fun v -> Printf.sprintf "x%d" v) () fmt t =
  let first = ref true in
  IM.iter
    (fun v q ->
      if !first then begin
        Format.fprintf fmt "%a*%s" Q.pp q (name v);
        first := false
      end
      else if Q.sign q >= 0 then Format.fprintf fmt " + %a*%s" Q.pp q (name v)
      else Format.fprintf fmt " - %a*%s" Q.pp (Q.neg q) (name v))
    t.terms;
  if !first then Q.pp fmt t.const
  else if not (Q.is_zero t.const) then
    if Q.sign t.const > 0 then Format.fprintf fmt " + %a" Q.pp t.const
    else Format.fprintf fmt " - %a" Q.pp (Q.neg t.const)

type op = Le | Lt | Ge | Gt | Eq

let pp_op fmt op =
  Format.pp_print_string fmt
    (match op with Le -> "<=" | Lt -> "<" | Ge -> ">=" | Gt -> ">" | Eq -> "=")

let negate_op = function
  | Le -> Gt
  | Lt -> Ge
  | Ge -> Lt
  | Gt -> Le
  | Eq -> invalid_arg "Linexpr.negate_op: Eq splits into Lt/Gt"

type cons = { expr : t; op : op; tag : int }

let holds env c =
  let v = eval env c.expr in
  match c.op with
  | Le -> Q.leq v Q.zero
  | Lt -> Q.lt v Q.zero
  | Ge -> Q.geq v Q.zero
  | Gt -> Q.gt v Q.zero
  | Eq -> Q.is_zero v
