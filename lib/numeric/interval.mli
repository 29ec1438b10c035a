(** Outward-rounded interval arithmetic.

    Every operation returns an interval guaranteed to contain the exact
    real result for any choice of reals in the argument intervals
    (containment is the only property the branch-and-prune solver needs;
    tightness is best-effort). Transcendental functions are widened by a
    few ulps beyond the libm result to absorb its rounding error. *)

type t = private { lo : float; hi : float }
(** Invariant: [lo <= hi] (with possibly infinite endpoints), or the
    canonical {!empty} value. Endpoints are never nan. *)

val make : float -> float -> t
(** @raise Invalid_argument if [lo > hi] or an endpoint is nan. *)

val unsafe_make : float -> float -> t
(** No check at all. Only for code that computes endpoints with this
    module's own operations, float for float, and must hand back exactly
    the interval the operation would have returned (HC4's flat kernels):
    the invariant then holds or fails exactly as it would have here. *)

val of_float : float -> t
(** Degenerate point interval. @raise Invalid_argument on nan. *)

val of_ints : int -> int -> t

val of_rational : Rational.t -> t
(** A float enclosure of an exact rational, verified by exact
    comparison (sound even when [Rational.to_float] is off by several
    ulps). Zero encloses as the point [[0, 0]]; any other rational as an
    interval a few ulps wide. *)

val of_rational_bounds : Rational.t option -> Rational.t option -> t
(** [None] bounds are infinite. *)

val empty : t
val entire : t
val zero : t
val one : t

(** {1 Predicates and measures} *)

val is_empty : t -> bool
val is_entire : t -> bool
val mem : float -> t -> bool
val subset : t -> t -> bool
val contains_zero : t -> bool

val width : t -> float
(** [infinity] for unbounded intervals; [0.] for points and {!empty}. *)

val mid : t -> float
(** A finite point inside the interval (clamped for unbounded intervals).
    @raise Invalid_argument on {!empty}. *)

val mag : t -> float
(** Maximum absolute value over the interval. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Set operations} *)

val inter : t -> t -> t
val hull : t -> t -> t

val split : t -> t * t
(** Bisect at {!mid}. @raise Invalid_argument on {!empty} or points that
    cannot be split. *)

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** Returns the interval hull when the divisor straddles zero; {!empty}
    when the divisor is the point zero. *)

val inv : t -> t
val sqr : t -> t
val pow_int : t -> int -> t
val sqrt : t -> t
val exp : t -> t
val log : t -> t
val sin : t -> t
val cos : t -> t
