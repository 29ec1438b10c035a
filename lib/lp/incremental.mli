(** Persistent, warm-started LP sessions for the DPLL(T) loop.

    The paper's control loop restarts the linear solver from scratch on
    every Boolean candidate model; a session instead keeps one
    {!Simplex.t} alive for the whole enumeration. Each call to {!solve}
    maps the new constraint set onto the simplex assertion stack by
    popping down to the longest still-valid prefix and pushing only the
    missing constraints (one trail frame per constraint, so any one of
    them can be retracted later), warm-starting every check from the
    previous basis — pivots survive retraction because they preserve the
    solution set.

    Verdict-equivalent to {!Simplex.solve_system} by construction: the
    same constant-constraint screening, the same branch-and-bound over
    [int_vars], the same typed [Unknown] degradation on budget
    exhaustion — only the tableau lifetime and pivot count differ. *)

type t

type stats = {
  mutable solves : int;  (** calls to {!solve} *)
  mutable asserted : int;  (** constraints pushed onto the stack *)
  mutable retracted : int;  (** constraints popped off the stack *)
  mutable reused : int;  (** constraints kept across consecutive solves *)
}

val create : ?budget:Absolver_resource.Budget.t -> unit -> t
(** A fresh session. The [budget] governs every pivot for the session's
    lifetime. *)

val set_budget : t -> Absolver_resource.Budget.t -> unit
(** Swap the budget governing subsequent pivots. The warm tableau and the
    assertion stack survive — this is how a long-lived per-client session
    (the solve server's) is re-governed by each request's own deadline
    without losing its warm start. *)

val solve : t -> ?int_vars:Linexpr.var list -> Linexpr.cons list -> Simplex.verdict
(** Decide the conjunction, reusing tableau state from earlier calls.
    Library boundary: budget exhaustion rolls the session back to a consistent state and returns [Unknown] —
    no exception escapes, and the session stays usable. *)

val stats : t -> stats

val counters : t -> (string * int) list
(** Session counters in telemetry form: solves and asserted / retracted /
    reused constraints. *)
