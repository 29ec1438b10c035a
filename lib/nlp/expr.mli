(** Nonlinear arithmetic expressions — the paper's class A of (possibly)
    nonlinear terms over [+ - * /] (Sec. 2), extended with [pow], [sqrt],
    [exp], [log], [sin], [cos] to substantiate the paper's claim that
    adding operators "is straightforward and not limited by a design
    decision". *)

module Q = Absolver_numeric.Rational
module I = Absolver_numeric.Interval

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

(** {1 Smart constructors (with constant folding)} *)

val const : Q.t -> t
val of_int : int -> t
val var : int -> t
val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val pow : t -> int -> t
val sqrt : t -> t
val exp : t -> t
val log : t -> t
val sin : t -> t
val cos : t -> t
val sum : t list -> t

(** {1 Observation} *)

val vars : t -> int list
(** Sorted, without duplicates. *)

val size : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Structural, over the whole term: [equal a b] implies
    [hash a = hash b]. *)

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by terms up to structural equality. Rationals are
    canonical, so two terms are equal exactly when they print the same:
    a table here shares what a table keyed by {!to_string} shares. *)

module Atom_tbl : Hashtbl.S with type key = t * Absolver_lp.Linexpr.op
(** Tables keyed by a comparison atom [e op 0]. *)

val pp : ?name:(int -> string) -> unit -> Format.formatter -> t -> unit
val to_string : ?name:(int -> string) -> t -> string

(** {1 Evaluation} *)

val eval_float : (int -> float) -> t -> float
(** Plain floating evaluation; may return nan/infinities. *)

val eval_interval : (int -> I.t) -> t -> I.t
(** Sound interval enclosure of the range over the given variable boxes. *)

val eval_exact : (int -> Q.t) -> t -> Q.t option
(** Exact rational evaluation; [None] when the expression leaves the
    rationals ([sqrt], [exp], ... or division by zero). *)

(** {1 Structure} *)

val linearize : t -> Absolver_lp.Linexpr.t option
(** [Some le] iff the expression is linear (affine) in its variables;
    products with constants and constant subexpressions are folded. *)

val is_linear : t -> bool

(** {1 Relations}

    A constraint [expr op 0], tagged with its origin (the Boolean variable
    it is attached to in an AB-problem). *)

type rel = { expr : t; op : Absolver_lp.Linexpr.op; tag : int }

val pp_rel : ?name:(int -> string) -> unit -> Format.formatter -> rel -> unit

val holds_float : ?tol:float -> (int -> float) -> rel -> bool
(** Floating check with tolerance on equalities (IPOPT-style approximate
    feasibility). A relation whose value is not finite (nan, or an
    infinity such as [x / 0]) does not hold. *)

val certainly_holds : (int -> I.t) -> rel -> bool
(** Interval certificate: the relation holds for {e every} point of the
    box. *)

val certainly_violated : (int -> I.t) -> rel -> bool
(** Interval certificate: the relation fails for every point of the box. *)

val negate_rel : rel -> rel list
(** Logical negation: [Eq] becomes the two strict alternatives (as in the
    paper's Sec. 1 treatment of negated equations). *)
