(** Variable boxes: one interval per variable. *)

module I = Absolver_numeric.Interval

type t = I.t array

val create : int -> t
(** All variables unbounded. *)

val of_bounds : (int * I.t) list -> int -> t
val copy : t -> t
val get : t -> int -> I.t
val set : t -> int -> I.t -> unit
val is_empty : t -> bool
(** Some variable has an empty interval. *)

val max_width : t -> float
val widest_var : t -> int
(** Index of the variable with the widest interval (preferring finite but
    wide over infinite, which are split around zero by the solver).
    @raise Invalid_argument on zero-dimensional boxes. *)

val midpoint : t -> float array
val env : t -> int -> I.t
val point_env : float array -> int -> I.t
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
