(** Arbitrary-precision signed integers.

    The sealed build environment provides no [zarith], yet the exact simplex
    solver in {!module:Absolver_lp} needs unbounded integers: pivoting on
    machine-word rationals overflows after a handful of eliminations. This
    module provides a compact sign-magnitude implementation (little-endian
    limbs in base [2^30]) with the operations the rest of the code base
    needs. *)

type t

val zero : t
val one : t
val two : t
val minus_one : t
val ten : t

(** {1 Conversions} *)

val of_int : int -> t

val to_int : t -> int
(** @raise Failure if the value does not fit in a native [int]. *)

val to_int_opt : t -> int option
val to_float : t -> float

val of_string : string -> t
(** Accepts an optional leading ['-' | '+'] followed by decimal digits.
    Underscores are allowed as digit separators.
    @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Predicates and comparison} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t

val divmod : t -> t -> t * t
(** Truncated division (quotient rounded toward zero, as in OCaml's [/]);
    the remainder has the sign of the dividend.
    @raise Division_by_zero if the divisor is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> t
(** Greatest common divisor; always non-negative. [gcd zero zero = zero]. *)

val pow : t -> int -> t
(** [pow b e] for [e >= 0]. @raise Invalid_argument on negative exponent. *)

val shift_left : t -> int -> t
(** Multiplication by [2^n], [n >= 0]. *)

val succ : t -> t
val pred : t -> t

val num_bits : t -> int
(** Number of bits of the magnitude; [num_bits zero = 0]. *)
