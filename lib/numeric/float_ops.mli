(** Directed rounding helpers for the interval arithmetic layer.

    OCaml exposes no way to change the FPU rounding mode, so outward
    rounding is emulated by stepping results to the adjacent representable
    float. This is coarser than true directed rounding (one extra ulp of
    width per operation) but preserves the containment guarantee the
    branch-and-prune solver relies on. *)

val next_up : float -> float
(** Smallest representable float strictly greater than the argument.
    [next_up infinity = infinity]; [next_up nan] is nan. *)

val next_down : float -> float
(** Largest representable float strictly less than the argument. *)

val add_down : float -> float -> float
val add_up : float -> float -> float
val sub_down : float -> float -> float
val sub_up : float -> float -> float
val mul_down : float -> float -> float
val mul_up : float -> float -> float
val div_down : float -> float -> float
val div_up : float -> float -> float

val widen_down : float -> float
(** Step down unless the value is exact by construction (infinite):
    {!next_down}, with [infinity] going to [max_float]. *)

val widen_up : float -> float
