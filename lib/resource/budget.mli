(** The resource governor's budget: a monotonic deadline, a step budget,
    an approximate allocation budget and a cooperative cancellation flag,
    bundled into one value threaded through every hot loop of the solve
    pipeline ([Engine.options.budget]).

    Design rules:

    - {!unlimited} (the default everywhere) compiles every operation down
      to a single match on an immutable constructor — instrumented hot
      loops pay nothing when no budget is configured.
    - Exhaustion inside a library is signalled with the {!Exhausted}
      exception, but it must be caught at that library's public entry
      points: no exception crosses a library boundary.  The reason is
      {e sticky} — once tripped, {!tripped} keeps reporting it, so outer
      layers that only see a generic "gave up" verdict can still recover
      the typed {!Absolver_error.t}.
    - Deadlines use the monotonic telemetry clock
      ({!Absolver_telemetry.Telemetry.Clock}), never the raw wall clock,
      so NTP steps cannot corrupt them.
    - The cancellation flag and the sticky trip reason are atomics, so any
      domain may {!cancel} or {!trip} a budget that other domains poll.
      {!child} builds the cancellation {e tree} the solve server uses:
      parent-side cancellation reaches every child at its next poll,
      while a child's own trip stays invisible to the parent. *)

type t

exception Exhausted of Absolver_error.t

val unlimited : t
(** No limits; every operation is a no-op.  [is_unlimited unlimited]. *)

val create :
  ?deadline_seconds:float ->
  ?max_steps:int ->
  ?max_words:int ->
  unit ->
  t
(** A fresh budget.  [deadline_seconds] is relative to now on the
    monotonic clock; [max_steps] bounds {!tick} calls (solver-defined
    work units: decisions, pivots, nodes, probes…); [max_words] bounds
    words allocated since creation (GC-observed plus {!charge}d). *)

val is_unlimited : t -> bool

val child :
  t ->
  ?deadline_seconds:float ->
  ?max_steps:int ->
  ?max_words:int ->
  unit ->
  t
(** A request budget sliced out of a long-lived parent (the solve
    server's admission layer): fresh meters with their {e own} limits —
    [deadline_seconds] is relative to now and is clipped to the parent's
    absolute deadline if that is tighter — and a cancellation cell linked
    to the parent's, so cancelling or tripping the parent exhausts every
    child at its next poll while a child's own trip stays invisible to
    the parent and its siblings.  [child unlimited ()] is a plain
    {!create} (no linkage). *)

val cancel : t -> unit
(** Request cooperative cancellation: the next poll trips the budget with
    {!Absolver_error.Cancelled}.  Safe to call from a signal handler or
    another domain. *)

val trip : t -> Absolver_error.t -> unit
(** Force exhaustion with the given reason (first trip wins).  Used by
    the fault-injection harness. *)

val tripped : t -> Absolver_error.t option
(** The sticky exhaustion reason, if the budget has tripped. *)

val tick : t -> unit
(** One unit of work in a hot loop.  Almost always an increment and two
    compares; every 256th call also polls the clock, the allocation meter
    and the cancellation flag.
    @raise Exhausted when a limit is hit (sticky). *)

val charge : t -> int -> unit
(** Meter [n] words of logical allocation explicitly (for structures the
    GC cannot attribute, or simulated allocators).
    @raise Exhausted when the allocation budget is exceeded. *)

val check : t -> Absolver_error.t option
(** Full non-raising poll: cancellation, deadline, steps, words.  [None]
    while within budget. *)

val check_exn : t -> unit
(** @raise Exhausted like {!tick}, but always runs the full poll and does
    not count a step. *)

val steps : t -> int
(** Ticks consumed so far (0 when unlimited). *)

val remaining_seconds : t -> float option
(** Seconds until the deadline ([None] when no deadline). *)

val guard : t -> (unit -> 'a) -> ('a, Absolver_error.t) result
(** Boundary wrapper: run [f], converting {!Exhausted} into its payload
    and any other exception into [Internal] (also {!trip}ping the budget
    so the reason is observable downstream).  This is what makes
    "exhaustion never raises across a library boundary" cheap to
    enforce. *)
