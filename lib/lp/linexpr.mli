(** Sparse linear expressions [sum a_i * x_i + c] over exact rationals.

    Variables are dense non-negative integers managed by the caller. *)

module Q = Absolver_numeric.Rational

type var = int
type t

val zero : t
val constant : Q.t -> t
val var : ?coeff:Q.t -> var -> t
val of_list : (Q.t * var) list -> Q.t -> t

val coeff : t -> var -> Q.t
val const : t -> Q.t
val coeffs : t -> (var * Q.t) list
(** Non-zero coefficients in increasing variable order. *)

val is_constant : t -> bool
val vars : t -> var list

val add : t -> t -> t
val sub : t -> t -> t
val scale : Q.t -> t -> t
val neg : t -> t
val add_term : t -> Q.t -> var -> t
val set_const : t -> Q.t -> t
val drop_const : t -> t

val eval : (var -> Q.t) -> t -> Q.t
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : ?name:(var -> string) -> unit -> Format.formatter -> t -> unit

module Form_tbl : Hashtbl.S with type key = (var * Q.t) list
(** Tables keyed by a constant-free linear form, given as its {!coeffs}.
    Rationals are canonical, so equal forms have equal keys. *)

(** Comparison operators of linear constraints. *)
type op = Le | Lt | Ge | Gt | Eq

val pp_op : Format.formatter -> op -> unit
val negate_op : op -> op
(** Logical negation: [Le -> Gt], [Eq] has no single negation and raises.
    @raise Invalid_argument on [Eq]. *)

(** A linear constraint [expr op 0] with an integer tag identifying its
    origin (e.g. the index of the arithmetic definition in an AB-problem). *)
type cons = { expr : t; op : op; tag : int }

val holds : (var -> Q.t) -> cons -> bool
