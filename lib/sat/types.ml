type var = int
type lit = int

let pos v = v * 2
let neg_of_var v = (v * 2) + 1
let negate l = l lxor 1
let var_of l = l lsr 1
let is_pos l = l land 1 = 0
let to_dimacs l = if is_pos l then var_of l + 1 else -(var_of l + 1)

let of_dimacs n =
  if n = 0 then invalid_arg "Types.of_dimacs: zero literal"
  else if n > 0 then pos (n - 1)
  else neg_of_var (-n - 1)

let pp_lit fmt l = Format.fprintf fmt "%d" (to_dimacs l)

(* Unboxed views of the same encodings (DESIGN.md Sec. 16): [t = int]
   with [@@immediate] asserts at the type level that values never box,
   so arrays of them are flat and comparisons never call the polymorphic
   runtime path. The plain aliases above remain the primary vocabulary;
   these modules serve code that wants the operations bundled with the
   type (watch lists, future typed containers). *)
module Var = struct
  type t = var [@@immediate]

  let of_int (v : int) : t =
    if v < 0 then invalid_arg "Types.Var.of_int: negative" else v

  let to_int (v : t) : int = v
  let equal : t -> t -> bool = Int.equal
  let compare : t -> t -> int = Int.compare
  let undef : t = -1
  let pp fmt (v : t) = Format.fprintf fmt "v%d" v
end

module Lit = struct
  type t = lit [@@immediate]

  let make (v : Var.t) ~positive : t = if positive then pos v else neg_of_var v
  let of_var = pos
  let negate = negate
  let var = var_of
  let is_pos = is_pos
  let to_int (l : t) : int = l
  let of_int (l : int) : t =
    if l < 0 then invalid_arg "Types.Lit.of_int: negative" else l

  let equal : t -> t -> bool = Int.equal
  let compare : t -> t -> int = Int.compare
  let undef : t = -1
  let to_dimacs = to_dimacs
  let of_dimacs = of_dimacs
  let pp = pp_lit
end

type value = V_true | V_false | V_undef

type outcome = Sat | Unsat | Unknown

let pp_outcome fmt o =
  Format.pp_print_string fmt
    (match o with Sat -> "sat" | Unsat -> "unsat" | Unknown -> "unknown")

type stats = {
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learnt_literals : int;
  mutable reductions : int;
  mutable blocked_visits : int;
}

let mk_stats () =
  {
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learnt_literals = 0;
    reductions = 0;
    blocked_visits = 0;
  }
