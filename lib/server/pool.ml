let available_cores () =
  try Domain.recommended_domain_count () with _ -> 1

(* ------------------------------------------------------------------ *)
(* Executor: a persistent pool of worker domains                       *)
(* ------------------------------------------------------------------ *)

module Executor = struct
  type job = unit -> unit

  exception Kill_worker

  type t = {
    lock : Mutex.t;
    wake : Condition.t;
    queue : job Queue.t;
    queue_capacity : int;
    n_workers : int;
    restart_limit : int;
    mutable spawned : unit Domain.t list;  (* every domain ever spawned *)
    mutable live : int;  (* worker loops currently serving the queue *)
    mutable restarts_used : int;
    mutable stopping : bool;
    mutable joined : bool;
    deaths : int Atomic.t;
    lost : int Atomic.t;  (* jobs abandoned by a dying worker *)
    running : int Atomic.t;
    submitted : int Atomic.t;
    completed : int Atomic.t;
  }

  type submit_outcome = Submitted | Rejected of string

  (* The panic barrier's escape hatch: an ordinary exception is a job
     bug and is contained (the job's owner answers for it — the server
     lane converts it to a typed internal_error reply); these are
     process-level disasters that must kill the worker domain so the
     supervisor can replace it with a fresh one.  [Kill_worker] is the
     deterministic stand-in the chaos tests throw. *)
  let is_fatal = function
    | Kill_worker | Out_of_memory | Stack_overflow -> true
    | _ -> false

  (* Workers block on [wake] when idle and drain the queue to empty
     before honouring [stopping], so shutdown never drops an accepted
     job.  A job's exception is contained here: the executor is shared
     infrastructure and one bad job must not take a worker down — except
     an [is_fatal] one, which escapes to the supervisor below. *)
  let worker_loop t =
    let live = ref true in
    while !live do
      Mutex.lock t.lock;
      while Queue.is_empty t.queue && not t.stopping do
        Condition.wait t.wake t.lock
      done;
      if Queue.is_empty t.queue then begin
        Mutex.unlock t.lock;
        live := false
      end
      else begin
        let job = Queue.pop t.queue in
        Mutex.unlock t.lock;
        Atomic.incr t.running;
        (match job () with
        | () ->
          Atomic.decr t.running;
          Atomic.incr t.completed
        | exception e when not (is_fatal e) ->
          Atomic.decr t.running;
          Atomic.incr t.completed
        | exception e ->
          Atomic.decr t.running;
          Atomic.incr t.lost;
          raise e)
      end
    done

  (* Supervision: a worker that dies of a fatal exception is replaced by
     a fresh domain, up to [restart_limit] replacements over the
     executor's lifetime.  Past the limit the pool shrinks and
     {!degraded} turns true — bounded restarts, so a deterministic
     crasher cannot hot-loop the supervisor.  The replacement is spawned
     from the dying domain itself (under the lock), so there is no
     supervisor thread to keep alive or crash. *)
  let rec supervised t () =
    try worker_loop t
    with _ ->
      Mutex.lock t.lock;
      Atomic.incr t.deaths;
      if (not t.stopping) && t.restarts_used < t.restart_limit then begin
        t.restarts_used <- t.restarts_used + 1;
        let d = Domain.spawn (supervised t) in
        t.spawned <- d :: t.spawned
      end
      else t.live <- t.live - 1;
      Mutex.unlock t.lock

  let create ?(queue_capacity = 64) ?(restart_limit = 8) ~workers () =
    let t =
      {
        lock = Mutex.create ();
        wake = Condition.create ();
        queue = Queue.create ();
        queue_capacity = max 1 queue_capacity;
        n_workers = max 1 workers;
        restart_limit = max 0 restart_limit;
        spawned = [];
        live = 0;
        restarts_used = 0;
        stopping = false;
        joined = false;
        deaths = Atomic.make 0;
        lost = Atomic.make 0;
        running = Atomic.make 0;
        submitted = Atomic.make 0;
        completed = Atomic.make 0;
      }
    in
    t.live <- t.n_workers;
    t.spawned <-
      List.init t.n_workers (fun _ -> Domain.spawn (supervised t));
    t

  let submit t job =
    Mutex.lock t.lock;
    if t.stopping then begin
      Mutex.unlock t.lock;
      Rejected "executor shutting down"
    end
    else if Queue.length t.queue >= t.queue_capacity then begin
      let n = Queue.length t.queue in
      Mutex.unlock t.lock;
      Rejected (Printf.sprintf "queue full (%d pending)" n)
    end
    else begin
      Queue.push job t.queue;
      Atomic.incr t.submitted;
      Condition.signal t.wake;
      Mutex.unlock t.lock;
      Submitted
    end

  let workers t = t.n_workers
  let in_flight t = Atomic.get t.running

  let queued t =
    Mutex.lock t.lock;
    let n = Queue.length t.queue in
    Mutex.unlock t.lock;
    n

  let submitted t = Atomic.get t.submitted
  let completed t = Atomic.get t.completed
  let worker_deaths t = Atomic.get t.deaths
  let lost_jobs t = Atomic.get t.lost

  let live_workers t =
    Mutex.lock t.lock;
    let n = t.live in
    Mutex.unlock t.lock;
    n

  let worker_restarts t =
    Mutex.lock t.lock;
    let n = t.restarts_used in
    Mutex.unlock t.lock;
    n

  (* The supervisor gave up on at least one worker: the pool is smaller
     than configured.  Health reports [degraded]; the queue still
     drains as long as one worker lives. *)
  let degraded t = live_workers t < t.n_workers

  let shutdown t =
    Mutex.lock t.lock;
    t.stopping <- true;
    Condition.broadcast t.wake;
    let join_now = not t.joined in
    t.joined <- true;
    Mutex.unlock t.lock;
    if join_now then begin
      (* A dying worker may spawn its replacement while we join, so
         join against a snapshot and re-check until the set is stable
         (restarts are bounded, so this terminates). *)
      let joined = ref [] in
      let rec drain () =
        let pending =
          Mutex.protect t.lock (fun () ->
              List.filter (fun d -> not (List.memq d !joined)) t.spawned)
        in
        if pending <> [] then begin
          List.iter
            (fun d ->
              Domain.join d;
              joined := d :: !joined)
            pending;
          drain ()
        end
      in
      drain ()
    end
end
