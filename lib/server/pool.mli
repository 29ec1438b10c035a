(** The solve server's domain pool: a supervised, bounded executor of
    solve jobs (DESIGN.md §13). *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()], the sensible cap for the
    executor's [workers]. *)

(** {1 Persistent executor}

    A long-lived pool of worker domains draining a bounded FIFO job
    queue — the compute substrate of the solve server: client handler
    threads (I/O-bound, all on the main domain) submit solve jobs here
    so they run in parallel on separate domains, and the bounded queue
    is the server's global admission-control backstop.  The pool
    outlives any one computation. *)
module Executor : sig
  type t

  exception Kill_worker
  (** Deterministically kills the worker domain running the job that
      raises it — the supervision tests' stand-in for a process-level
      disaster ([Out_of_memory] and [Stack_overflow] get the same
      treatment). *)

  type submit_outcome =
    | Submitted
    | Rejected of string
        (** admission refused, with the reason ("queue full (N pending)"
            or "executor shutting down") — the caller is expected to
            surface it, not retry blindly *)

  val is_fatal : exn -> bool
  (** Would this exception, escaping a job, kill its worker domain?
      Lets an outer panic barrier (the server's lane wrapper) answer
      recoverable failures and re-raise worker-fatal ones. *)

  val create :
    ?queue_capacity:int -> ?restart_limit:int -> workers:int -> unit -> t
  (** Spawn [max 1 workers] supervised worker domains. [queue_capacity]
      (default 64) bounds the number of {e queued} (not yet running)
      jobs; [restart_limit] (default 8) bounds worker replacements over
      the executor's lifetime. *)

  val submit : t -> (unit -> unit) -> submit_outcome
  (** Enqueue a job. Jobs must contain their own exceptions as a matter
      of hygiene, but a leak is contained by the worker loop — one bad
      job never takes a worker down.  The exceptions are fatal ones
      ({!Kill_worker}, [Out_of_memory], [Stack_overflow]): those kill
      the worker domain, abandoning the job (counted in {!lost_jobs}),
      and the supervisor spawns a replacement — up to [restart_limit]
      times, after which the pool shrinks and {!degraded} turns true. *)

  val workers : t -> int
  val in_flight : t -> int  (** jobs currently executing *)

  val queued : t -> int  (** jobs accepted but not yet started *)

  val submitted : t -> int  (** jobs accepted since creation *)

  val completed : t -> int  (** jobs finished (including failed) *)

  val live_workers : t -> int  (** workers currently serving the queue *)

  val worker_deaths : t -> int  (** fatal exceptions that killed a worker *)

  val worker_restarts : t -> int  (** replacements spawned so far *)

  val lost_jobs : t -> int  (** jobs abandoned by a dying worker *)

  val degraded : t -> bool
  (** The supervisor gave up on at least one worker (restart budget
      exhausted): the pool runs below its configured width.  Surfaced
      by the server's [health] op. *)

  val shutdown : t -> unit
  (** Stop accepting, drain every already-accepted job, join all worker
      domains (including replacements spawned mid-shutdown). Idempotent;
      blocks until the pool is quiet. *)
end
