(** Deterministic fault injection at solver boundaries.

    Each boundary of the solve pipeline calls [hit point budget] with its
    own name; a test arms a point and the [n]th hit fires — either
    tripping the budget (simulating a timeout or cancellation exactly
    where the real poll would notice it) or raising {!Injected}
    (simulating an internal solver crash).  Disarmed, a hit is a single
    flag test, so the points stay in production code permanently.

    The harness is deliberately deterministic: tests choose the point and
    the hit count, so every failure replays exactly. *)

exception Injected of string
(** The injected "solver crash".  Must never escape [Engine.solve] — the
    engine's boundary converts it to [R_unknown (internal: ...)]. *)

type action =
  | Trip of Absolver_error.t
      (** Trip the budget with this reason and raise
          {!Budget.Exhausted}, as a real exhaustion would. *)
  | Raise  (** Raise {!Injected}, as an internal fault would. *)

val known : string list
(** The static fault-point inventory (see DESIGN.md Sec. 10). *)

val arm : ?after:int -> point:string -> action -> unit
(** Fire [action] on the [after]th hit of [point] (default: the first).
    A point fires once per arming.
    @raise Invalid_argument for a point not in {!known}. *)

val disarm_all : unit -> unit
(** Disarm every point and reset hit counts.  Tests call this in a
    [Fun.protect] finaliser. *)

val hit : string -> Budget.t -> unit
(** Called by pipeline code at each boundary.  No-op unless some point
    has been armed since the last {!disarm_all}. *)

val hits : string -> int
(** Observed hits of a point since the last {!disarm_all} (counted only
    while any point is armed). *)

(** Seeded network fault injection for the solve server's read and
    write paths (DESIGN.md Sec. 15).

    Unlike the solver points above, network faults are drawn at random
    with per-kind probabilities: torn frames (a write split in two with
    a delay between the halves), delayed bytes, mid-frame disconnects
    and refused connections.  Each decision draws from its own PRNG,
    seeded by the plan seed, the kind of operation and the bytes of the
    frame concerned; since a session's frames do not depend on other
    sessions, the same plan injects the same faults into the same
    session however concurrent connections interleave.  This module
    only {e decides}; applying a decision (sleeping, shutting a socket
    down) is the I/O layer's job ({!Absolver_server.Io}), so this library
    stays free of [Unix].  Disarmed, every query is one mutex-protected
    [None] check. *)
module Net : sig
  type plan = {
    seed : int;  (** same seed, same frames = same decisions *)
    tear_write : float;  (** probability a write is split in two *)
    delay : float;  (** probability an operation is delayed *)
    drop : float;  (** probability the connection is severed mid-frame *)
    refuse_accept : float;
        (** probability a connection is severed at its first frame *)
    max_delay_ms : float;  (** injected delays are uniform in [0, max] *)
  }

  val default_plan : plan

  type decision = {
    delay_ms : float;  (** sleep this long before the operation *)
    tear_at : int option;  (** split a write at this byte offset *)
    drop : bool;  (** sever the connection instead of completing *)
  }

  val no_decision : decision

  val arm : ?plan:plan -> unit -> unit
  (** Start injecting network faults according to [plan]. *)

  val disarm : unit -> unit
  val armed : unit -> bool

  val on_write : string -> decision
  (** Decision for writing this frame. *)

  val on_frame : first:bool -> string -> decision
  (** Decision for a frame just read, before it is handled: [drop]
      severs the connection and loses the frame.  [first] marks a
      connection's first frame, which may be refused that way instead. *)

  val injected : unit -> (string * int) list
  (** Injected-event counts by kind ([tear], [delay], [drop_read],
      [drop_write], [refuse_accept]) since {!arm}. *)
end
