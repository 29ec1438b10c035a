(** Shared vocabulary of the SAT layer.

    Variables are non-negative integers; a literal packs a variable and a
    polarity into a single integer ([2*v] for the positive literal,
    [2*v+1] for the negative one), the usual MiniSat encoding. *)

type var = int
type lit = int

val pos : var -> lit
val neg_of_var : var -> lit
val negate : lit -> lit
val var_of : lit -> var
val is_pos : lit -> bool

val to_dimacs : lit -> int
(** 1-based signed integer, as in DIMACS files. *)

val of_dimacs : int -> lit
(** @raise Invalid_argument on zero. *)

val pp_lit : Format.formatter -> lit -> unit

(** Unboxed module views of the same encodings. [t] is an [int] alias and
    [\[@@immediate\]] makes the unboxed representation a checked part of
    the interface: arrays of these are flat, equality never boxes. *)
module Var : sig
  type t = var [@@immediate]

  val of_int : int -> t
  (** @raise Invalid_argument on negatives. *)

  val to_int : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int

  val undef : t
  (** A sentinel outside the valid range (compares unequal to every real
      variable). *)

  val pp : Format.formatter -> t -> unit
end

module Lit : sig
  type t = lit [@@immediate]

  val make : Var.t -> positive:bool -> t
  val of_var : Var.t -> t
  (** The positive literal. *)

  val negate : t -> t
  val var : t -> Var.t
  val is_pos : t -> bool
  val to_int : t -> int

  val of_int : int -> t
  (** @raise Invalid_argument on negatives. *)

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val undef : t
  val to_dimacs : t -> int
  val of_dimacs : int -> t
  val pp : Format.formatter -> t -> unit
end

(** Three-valued assignment results. *)
type value = V_true | V_false | V_undef

(** Outcome of a solver run. *)
type outcome = Sat | Unsat | Unknown

val pp_outcome : Format.formatter -> outcome -> unit

(** Statistics every solver in this library reports. *)
type stats = {
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learnt_literals : int;
  mutable reductions : int;  (** learnt-clause database reductions *)
  mutable blocked_visits : int;
      (** watched-clause visits skipped because the clause's blocking
          literal was already true (the clause was never dereferenced) *)
}

val mk_stats : unit -> stats
