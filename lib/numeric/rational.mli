(** Exact rational arithmetic over {!Bigint}.

    Values are kept normalized: the denominator is strictly positive and
    numerator/denominator are coprime. Used throughout the exact simplex
    solver and for representing constants of AB-problems without rounding
    (e.g. the [3.5] and [7.1] of the paper's Fig. 2). *)

type t

val zero : t
val one : t
val minus_one : t

(** {1 Construction} *)

val make : Bigint.t -> Bigint.t -> t
(** [make num den]. @raise Division_by_zero if [den] is zero. *)

val of_bigint : Bigint.t -> t
val of_int : int -> t
val of_ints : int -> int -> t

val of_float : float -> t
(** Exact conversion of a finite float (every finite float is a dyadic
    rational). @raise Invalid_argument on nan or infinities. *)

val of_decimal_string : string -> t
(** Parses decimal literals as they appear in the extended-DIMACS input
    language: ["3"], ["3.5"], ["-0.25"], [".5"], ["2e3"], ["1.5e-2"], and
    exact fractions ["7/2"].
    The exponent may be at most 1000 in either sign: beyond every
    float's range, and small enough that the power of ten it stands for
    is quick to build.
    @raise Invalid_argument on malformed input, and on a larger
    exponent. *)

(** {1 Observation} *)

val num : t -> Bigint.t
val den : t -> Bigint.t
val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool
val to_float : t -> float
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Comparison} *)

val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t
val lt : t -> t -> bool
val leq : t -> t -> bool
val gt : t -> t -> bool
val geq : t -> t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val mul_int : t -> int -> t

val floor : t -> Bigint.t
(** Greatest integer [<=] the value. *)

val ceil : t -> Bigint.t
(** Least integer [>=] the value. *)

val pow : t -> int -> t
(** Integer exponent; negative exponents invert.
    @raise Division_by_zero when raising zero to a negative power. *)
