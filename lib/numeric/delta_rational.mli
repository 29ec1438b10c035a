(** Rationals extended with an infinitesimal: values of the form
    [r + k*delta] where [delta] is a positive infinitesimal.

    The general simplex treats a strict bound [x < c] as the non-strict
    bound [x <= c - delta]; once a feasible delta-valuation is found, a
    concrete positive value for [delta] small enough to satisfy every
    strict constraint is recovered with {!concretize_delta}. *)

type t
(** Abstract: the implementation inlines the rational-only case (zero
    delta coefficient) into a flat single-field block, so values must be
    built with {!make}/{!of_rational} and inspected with {!r}/{!k}. *)

val make : Rational.t -> Rational.t -> t
val of_rational : Rational.t -> t
val of_int : int -> t
val zero : t
val delta : t
(** [0 + 1*delta]. *)

val r : t -> Rational.t
val k : t -> Rational.t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t

val scale : Rational.t -> t -> t
(** Multiplication by a rational scalar. *)

val compare : t -> t -> int
(** Lexicographic: first on the rational part, then on the delta
    coefficient. *)

val equal : t -> t -> bool
val lt : t -> t -> bool
val leq : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val pp : Format.formatter -> t -> unit

val concretize_delta : (t * t) list -> Rational.t
(** [concretize_delta pairs] returns a strictly positive rational value [d]
    for delta such that substituting it preserves every ordering
    [lhs <= rhs] in [pairs] (each pair must already satisfy
    [compare lhs rhs <= 0] symbolically). *)

val substitute : Rational.t -> t -> Rational.t
(** [substitute d v] evaluates [v] with [delta := d]. *)
