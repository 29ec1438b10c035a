(** A fault-tolerant session client for the solve server (DESIGN.md
    Sec. 15.3).

    The server's SMT-LIB 2 sessions are stateful: declarations,
    assertions and push/pop frames accumulate per connection, so a
    dropped connection loses the session.  This client makes that loss
    invisible: every state-bearing command that succeeds is recorded in
    a {e command journal} (with push/pop scope compaction — a popped
    frame's commands are discarded, not replayed and re-popped), and a
    reconnect transparently replays the journal, as one request, before
    the pending command is retried.  Under the chaos harness this yields
    byte-identical transcripts to a fault-free run.

    Transport faults — refused or torn connections, lost replies,
    timeouts — are retried with exponential backoff and deterministic
    seeded jitter ({!backoff_s} is pure, so retry schedules are
    reproducible).  Server {e answers}, including [(error ...)] replies,
    are never retried: they are part of the session transcript.
    Admission-control rejections retry on the same connection.

    One command per request: each call maps to exactly one JSON
    [{"op":"smt2"}] request, so request/response pairing survives
    arbitrary connection loss. *)

type config = {
  connect_timeout_s : float;
      (** overall budget for one connect attempt, including the dial
          retries inside it (default 5 s) *)
  request_timeout_s : float;
      (** reply deadline per attempt; expiry counts as a transport
          fault and triggers a retry (default 30 s) *)
  max_attempts : int;
      (** total tries per command, the first included (default 8) *)
  backoff_base_s : float;  (** first retry delay (default 0.01 s) *)
  backoff_max_s : float;  (** backoff ceiling (default 0.5 s) *)
  seed : int;  (** jitter PRNG seed — same seed, same schedule *)
  journal_solves : bool;
      (** also journal non-state commands (check-sat, get-model …) so a
          replayed session reconstructs the server's warm solver state
          exactly — the chaos differential suite turns this on
          (default false) *)
}

val default_config : config

type t

val connect : ?config:config -> path:string -> unit -> (t, string) result
(** Dial the server's Unix-domain socket.  Retries refused/missing
    sockets until [connect_timeout_s] elapses (a restarting daemon is
    indistinguishable from a refused accept). *)

val command : t -> string -> (string list, string) result
(** Run one SMT-LIB 2 command (a complete s-expression), returning the
    server's reply lines (often empty — [assert] answers nothing).
    Retries transport faults with backoff, reconnecting and replaying
    the journal as needed; [Error] only after [max_attempts] tries or
    on a client already closed. *)

val run_script : t -> string -> (string list, string) result
(** Split a multi-command script into complete forms and run each
    through {!command}, concatenating replies.  Stops at the first
    transport failure or after [(exit)]. *)

val close : t -> unit
(** Send nothing; drop the connection and refuse further commands. *)

(** {1 Introspection} *)

val retries : t -> int  (** transport-fault retries across all commands *)

val reconnects : t -> int  (** successful re-dials after the first *)

val replayed : t -> int  (** journal commands re-sent during replays *)

val journal_length : t -> int  (** commands currently held for replay *)

val backoff_s : config -> rng:Random.State.t -> attempt:int -> float
(** The delay before retry [attempt] (1-based): exponential from
    [backoff_base_s], capped at [backoff_max_s], jittered into
    [[0.5, 1.0]] of the nominal value by the next draw from [rng].
    Pure in [rng]: a seeded state reproduces the schedule exactly. *)
