(** The error taxonomy of the resource governor.

    Every layer of the solve pipeline that can give up early reports one
    of these instead of letting an exception escape its library boundary;
    the engine converts them into [R_unknown] verdicts carrying
    best-effort partial results (Monniaux's {e anytime} contract: budget
    pressure may turn SAT/UNSAT into UNKNOWN but never flips an answer). *)

type resource =
  | Steps  (** the tick/step budget, e.g. pivots, conflicts, nodes *)
  | Memory  (** the approximate allocation budget, in words *)

type t =
  | Timeout  (** the monotonic deadline passed *)
  | Cancelled  (** cooperative cancellation was requested *)
  | Out_of_budget of resource
  | Internal of string
      (** an unexpected condition converted at a boundary — a caught
          exception, a missing solver, an impossible state *)

val to_string : t -> string
(** Short lower-case reason, the exact text carried by [R_unknown] (so a
    timed-out solve prints [unknown (timeout)]). *)

val code : t -> string
(** One-token machine-readable tag ([timeout], [cancelled], [steps],
    [memory], [internal]) for stats columns and JSON. *)

val pp : Format.formatter -> t -> unit
