module Budget = Absolver_resource.Budget
module Telemetry = Absolver_telemetry.Telemetry
module Prometheus = Absolver_telemetry.Prometheus
module Clock = Absolver_telemetry.Telemetry.Clock
module Pool = Absolver_parallel.Pool
module Engine = Absolver_core.Engine
module Registry = Absolver_core.Registry
module Dimacs = Absolver_core.Dimacs_ext
module Smt_parser = Absolver_smtlib.Parser
module To_ab = Absolver_smtlib.To_ab
module Smt2 = Absolver_smtlib.Smt2

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  max_clients : int;
  client_cap : int;
  queue_capacity : int;
  workers : int;
  restart_limit : int;
  default_timeout_ms : int option;
  io : Io.limits;
  engine_options : Engine.options;
  registry : unit -> Registry.t * (unit -> unit);
  trace : out_channel option;
  slow_log : out_channel option;
  slow_ms : float;
}

let default_registry () =
  let solver, dispose = Registry.persistent_simplex () in
  ({ Registry.default with Registry.linear = [ solver ] }, dispose)

let default_config =
  {
    max_clients = 32;
    client_cap = 8;
    queue_capacity = 64;
    workers = max 1 (min 4 (Pool.available_cores () - 1));
    restart_limit = 8;
    default_timeout_ms = Some 30_000;
    io = Io.default_limits;
    engine_options = Engine.default_options;
    registry = default_registry;
    trace = None;
    slow_log = None;
    slow_ms = 100.0;
  }

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  config : config;
  exec : Pool.Executor.t;
  tel : Telemetry.t;
  tel_lock : Mutex.t;
  slow_lock : Mutex.t;
  root : Budget.t;  (* cancellable umbrella over every request budget *)
  started : float;
  clients : int Atomic.t;
  total_clients : int Atomic.t;
  lock : Mutex.t;
  mutable listener : Unix.file_descr option;
  mutable client_fds : Unix.file_descr list;
  mutable stopping : bool;
}

let create ?(config = default_config) () =
  (* A peer that closes mid-reply must surface as EPIPE on the write —
     a per-connection error value — not as a process-killing signal.
     Idempotent, and harmless in-process: nothing here relies on
     default SIGPIPE delivery. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ | Sys_error _ -> ());
  {
    config;
    exec =
      Pool.Executor.create ~queue_capacity:config.queue_capacity
        ~restart_limit:config.restart_limit ~workers:config.workers ();
    tel = Telemetry.create ?trace:config.trace ();
    tel_lock = Mutex.create ();
    slow_lock = Mutex.create ();
    root = Budget.create ();
    started = Clock.wall ();
    clients = Atomic.make 0;
    total_clients = Atomic.make 0;
    lock = Mutex.create ();
    listener = None;
    client_fds = [];
    stopping = false;
  }

let tracing srv = srv.config.trace <> None

(* The server-side aggregate is one Telemetry handle shared by every
   worker domain, so all access goes through [tel_lock] (solve/smt2
   requests additionally record into a per-request fork of this handle,
   merged back at request end — see [begin_request]). *)
let bump srv name n =
  Mutex.protect srv.tel_lock (fun () -> Telemetry.add srv.tel name n)

let observe srv name v =
  Mutex.protect srv.tel_lock (fun () -> Telemetry.observe srv.tel name v)

let set_gauge srv name v =
  Mutex.protect srv.tel_lock (fun () -> Telemetry.set_gauge srv.tel name v)

(* ------------------------------------------------------------------ *)
(* Per-request trace context                                           *)
(*                                                                     *)
(* Every solve/smt2 request gets a fresh trace id and a fork of the    *)
(* server handle with one [server.request] root span.  The fork shares *)
(* the server's trace sink and span-id space, so engine spans — and    *)
(* their further forks across the domain pool — stitch into a single   *)
(* connected tree per request in the JSONL stream; aggregates          *)
(* (counters, span totals, pivot/depth/allocation histograms) merge    *)
(* back into the long-running server handle at request end.            *)
(* ------------------------------------------------------------------ *)

type req = {
  rq_op : string;
  rq_trace_id : string;
  rq_tel : Telemetry.t;
  rq_span : int;
  rq_started : float;
  rq_alloc0 : float;
}

(* Words allocated by this domain so far.  A request runs entirely on
   one executor worker domain (the lane serializes it), so the delta
   across the request is its own allocation. *)
let allocated_words () =
  let minor, major = Engine.alloc_snapshot () in
  minor +. major

let begin_request srv ~op ~enqueued =
  let rq_trace_id = Telemetry.mint_trace_id () in
  let rq_tel = Telemetry.fork ~parent:(-1) ~trace_id:rq_trace_id srv.tel in
  let rq_started = Clock.now () in
  let queue_wait_ms = Float.max 0.0 ((rq_started -. enqueued) *. 1000.) in
  Telemetry.observe rq_tel "server.queue_wait_ms" queue_wait_ms;
  let rq_span =
    Telemetry.span_open rq_tel "server.request"
      ~attrs:
        [
          ("op", Telemetry.String op);
          ("queue_wait_ms", Telemetry.Float queue_wait_ms);
        ]
  in
  { rq_op = op; rq_trace_id; rq_tel; rq_span; rq_started; rq_alloc0 = allocated_words () }

let request_options srv rq budget =
  { srv.config.engine_options with Engine.budget; telemetry = rq.rq_tel }

let log_slow srv rq ~verdict ~latency_ms ~(run_stats : Engine.run_stats option) =
  match srv.config.slow_log with
  | Some oc when latency_ms >= srv.config.slow_ms ->
    let module J = Telemetry.Json in
    let quoted s = Printf.sprintf "\"%s\"" (J.escape s) in
    let budget_outcome =
      match run_stats with
      | Some rs -> (
        match rs.Engine.budget_exhausted with
        | Some e -> quoted (Absolver_resource.Absolver_error.to_string e)
        | None -> "null")
      | None -> "null"
    in
    let line =
      J.obj
        [
          ("type", "\"slow_query\"");
          ("t", J.of_float (Clock.wall ()));
          ("op", quoted rq.rq_op);
          ("verdict", quoted verdict);
          ("latency_ms", J.of_float latency_ms);
          ("budget", budget_outcome);
          ("trace_id", quoted rq.rq_trace_id);
          (* this request's own work: its fork's counter totals *)
          ( "counters",
            J.obj
              (List.map
                 (fun (name, n) -> (name, string_of_int n))
                 (Telemetry.counters rq.rq_tel)) );
        ]
    in
    Mutex.protect srv.slow_lock (fun () ->
        try
          output_string oc line;
          output_char oc '\n';
          flush oc
        with Sys_error _ -> ())
  | _ -> ()

let end_request srv rq ~verdict ~run_stats =
  let latency_ms = (Clock.now () -. rq.rq_started) *. 1000. in
  let alloc = Float.max 0.0 (allocated_words () -. rq.rq_alloc0) in
  Telemetry.observe rq.rq_tel "server.request_alloc_words" alloc;
  Telemetry.observe rq.rq_tel "server.latency_ms" latency_ms;
  Telemetry.span_close rq.rq_tel rq.rq_span
    ~attrs:
      [
        ("verdict", Telemetry.String verdict);
        ("latency_ms", Telemetry.Float latency_ms);
      ];
  Telemetry.flush rq.rq_tel;
  Mutex.protect srv.tel_lock (fun () ->
      Telemetry.merge srv.tel rq.rq_tel;
      Telemetry.add srv.tel ("server." ^ rq.rq_op) 1);
  (match run_stats with
  | Some { Engine.budget_exhausted = Some _; _ } -> bump srv "server.budget_trips" 1
  | _ -> ());
  log_slow srv rq ~verdict ~latency_ms ~run_stats

(* Extra response fields when tracing is on: the keys to slice the
   JSONL stream by request.  Silent otherwise, keeping the default
   wire format byte-identical. *)
let trace_fields srv rq =
  if tracing srv then
    [
      ("trace_id", Sjson.Str rq.rq_trace_id);
      ("span_id", Sjson.Num (float_of_int rq.rq_span));
    ]
  else []

(* ------------------------------------------------------------------ *)
(* Stats / health payloads                                             *)
(* ------------------------------------------------------------------ *)

(* Counters named [base|k=v] (the Prometheus label convention) fold
   into a JSON object keyed by the label value: the stats view of
   [server.disconnects|reason=...] / [server.errors|kind=...]. *)
let labelled_counts tel prefix =
  List.filter_map
    (fun (name, v) ->
      let n = String.length prefix in
      if String.length name > n && String.sub name 0 n = prefix then
        Some
          (String.sub name n (String.length name - n), Sjson.Num (float_of_int v))
      else None)
    (List.sort compare (Telemetry.counters tel))

let stats_fields srv =
  let pool_fields =
    [
      ("workers", Sjson.Num (float_of_int (Pool.Executor.workers srv.exec)));
      ("in_flight", Sjson.Num (float_of_int (Pool.Executor.in_flight srv.exec)));
      ("queued", Sjson.Num (float_of_int (Pool.Executor.queued srv.exec)));
      ("submitted", Sjson.Num (float_of_int (Pool.Executor.submitted srv.exec)));
      ("completed", Sjson.Num (float_of_int (Pool.Executor.completed srv.exec)));
      ( "workers_live",
        Sjson.Num (float_of_int (Pool.Executor.live_workers srv.exec)) );
      ( "worker_deaths",
        Sjson.Num (float_of_int (Pool.Executor.worker_deaths srv.exec)) );
      ( "worker_restarts",
        Sjson.Num (float_of_int (Pool.Executor.worker_restarts srv.exec)) );
      ("lost_jobs", Sjson.Num (float_of_int (Pool.Executor.lost_jobs srv.exec)));
    ]
  in
  Mutex.protect srv.tel_lock (fun () ->
      let c name = Sjson.Num (float_of_int (Telemetry.counter srv.tel name)) in
      (* One source of truth for latency: the same mergeable histogram
         the Prometheus exporter renders. *)
      let latency =
        match Telemetry.histogram srv.tel "server.latency_ms" with
        | Some h ->
          [
            ("count", Sjson.Num (float_of_int h.Telemetry.h_count));
            ("p50_ms", Sjson.Num (Telemetry.hist_quantile h 0.50));
            ("p95_ms", Sjson.Num (Telemetry.hist_quantile h 0.95));
            ("p99_ms", Sjson.Num (Telemetry.hist_quantile h 0.99));
            ("max_ms", Sjson.Num h.Telemetry.h_max);
          ]
        | None -> [ ("count", Sjson.Num 0.) ]
      in
      [
        ( "queries",
          Sjson.Obj
            [
              ("solve", c "server.solve");
              ("smt2", c "server.smt2");
              ("stats", c "server.stats");
              ("health", c "server.health");
            ] );
        ( "verdicts",
          Sjson.Obj
            [
              ("sat", c "server.sat");
              ("unsat", c "server.unsat");
              ("unknown", c "server.unknown");
            ] );
        ("rejected", c "server.rejected");
        ("budget_trips", c "server.budget_trips");
        ( "disconnects",
          Sjson.Obj (labelled_counts srv.tel "server.disconnects|reason=") );
        ("errors", Sjson.Obj (labelled_counts srv.tel "server.errors|kind="));
        ("latency_ms", Sjson.Obj latency);
        ( "pool",
          Sjson.Obj
            (pool_fields
            @ [
                (* last sampled at an enqueue/dequeue edge, vs the
                   instantaneous [queued] probe above *)
                ( "queue_depth",
                  Sjson.Num
                    (Option.value ~default:0.
                       (List.assoc_opt "pool.queue_depth"
                          (Telemetry.gauges srv.tel))) );
              ]) );
        ( "clients",
          Sjson.Obj
            [
              ("active", Sjson.Num (float_of_int (Atomic.get srv.clients)));
              ("total", Sjson.Num (float_of_int (Atomic.get srv.total_clients)));
            ] );
        ("uptime_s", Sjson.Num (Clock.wall () -. srv.started));
      ])

let stats_json srv = Sjson.to_string (Sjson.Obj (stats_fields srv))

(* Prometheus text exposition of the whole aggregate.  Liveness gauges
   are refreshed at render time so a scrape always sees current
   occupancy, not the last request's. *)
let metrics_text srv =
  Mutex.protect srv.tel_lock (fun () ->
      Telemetry.set_gauge srv.tel "server.uptime_s"
        (Clock.wall () -. srv.started);
      Telemetry.set_gauge srv.tel "server.clients_active"
        (float_of_int (Atomic.get srv.clients));
      Telemetry.set_gauge srv.tel "server.clients_total"
        (float_of_int (Atomic.get srv.total_clients));
      Telemetry.set_gauge srv.tel "pool.workers"
        (float_of_int (Pool.Executor.workers srv.exec));
      Telemetry.set_gauge srv.tel "pool.in_flight"
        (float_of_int (Pool.Executor.in_flight srv.exec));
      Telemetry.set_gauge srv.tel "pool.queued"
        (float_of_int (Pool.Executor.queued srv.exec));
      Prometheus.render srv.tel)

let health_fields srv =
  let state =
    if srv.stopping then "stopping"
    else if Pool.Executor.degraded srv.exec then "degraded"
    else "ok"
  in
  [
    ("health", Sjson.Str state);
    ("accepting", Sjson.Bool (not srv.stopping));
    ("uptime_s", Sjson.Num (Clock.wall () -. srv.started));
    ("clients", Sjson.Num (float_of_int (Atomic.get srv.clients)));
    ("workers", Sjson.Num (float_of_int (Pool.Executor.workers srv.exec)));
    ("in_flight", Sjson.Num (float_of_int (Pool.Executor.in_flight srv.exec)));
    ("queued", Sjson.Num (float_of_int (Pool.Executor.queued srv.exec)));
    ( "workers_live",
      Sjson.Num (float_of_int (Pool.Executor.live_workers srv.exec)) );
    ( "worker_deaths",
      Sjson.Num (float_of_int (Pool.Executor.worker_deaths srv.exec)) );
    ( "worker_restarts",
      Sjson.Num (float_of_int (Pool.Executor.worker_restarts srv.exec)) );
  ]

(* ------------------------------------------------------------------ *)
(* Per-client serial lanes                                             *)
(*                                                                     *)
(* Each connection owns a FIFO of request jobs; at most one is ever    *)
(* submitted to the executor at a time, and the next is submitted only *)
(* from the previous one's completion — so a client's responses come   *)
(* back in request order (deterministic for scripted sessions), the    *)
(* client's warm simplex session and smt2 state are never touched by   *)
(* two domains at once, and fairness across clients falls out of the   *)
(* executor's FIFO: C clients have at most C jobs in the global queue. *)
(* ------------------------------------------------------------------ *)

type entry = {
  run : unit -> unit;
  entry_reject : string -> unit;
  entry_panic : exn -> unit;  (* typed internal-error reply for this entry *)
}

type client = {
  srv : t;
  fd_out : Unix.file_descr;
  out_lock : Mutex.t;
  dead : bool Atomic.t;  (* reply write failed: peer is fully gone *)
  disc : string option Atomic.t;  (* disconnect reason, recorded once *)
  cbudget : Budget.t;  (* umbrella over this connection's request budgets *)
  m : Mutex.t;
  cv : Condition.t;
  q : entry Queue.t;
  mutable busy : bool;
  mutable rdr : Io.reader option;
  registry : Registry.t;
  dispose : unit -> unit;
  smt2 : Smt2.session;
}

(* Every request budget is a child of the connection's [cbudget] (itself
   a child of the server root), so tearing down a client cancels its
   queued and in-flight work in one stroke without touching anyone
   else's. *)
let budget_for c timeout_ms =
  let ms =
    match timeout_ms with
    | Some _ as m -> m
    | None -> c.srv.config.default_timeout_ms
  in
  match ms with
  | Some m when m > 0 ->
    Budget.child c.cbudget ~deadline_seconds:(float_of_int m /. 1000.) ()
  | _ -> Budget.child c.cbudget ()

let record_disconnect c reason =
  if Atomic.compare_and_set c.disc None (Some reason) then
    bump c.srv ("server.disconnects|reason=" ^ reason) 1

(* Tear the client down from the writing side: the peer is fully gone
   (EPIPE) or the transport is broken, so queued and in-flight work is
   pointless — cancel the connection umbrella and let the lane drain
   without writing to the dead fd. *)
let mark_dead c reason =
  if not (Atomic.exchange c.dead true) then begin
    record_disconnect c reason;
    Budget.cancel c.cbudget
    (* the reader polls [c.dead] via its stop condition within one
       select slice, so no need to sever the fd from here *)
  end

let write_line c line =
  if not (Atomic.get c.dead) then
    Mutex.protect c.out_lock (fun () ->
        if not (Atomic.get c.dead) then
          match Io.write_all ~chaos:true c.fd_out (line ^ "\n") with
          | Ok () -> ( match c.rdr with Some r -> Io.touch r | None -> ())
          | Error Io.Peer_closed -> mark_dead c "epipe"
          | Error (Io.Write_error _) ->
            bump c.srv "server.errors|kind=io_write" 1;
            mark_dead c "io_error")

(* Requires [c.m] held.  On executor rejection the job is answered
   immediately (out of band) and the lane moves on — the reader is
   never blocked and nothing is silently dropped. *)
let sample_queue_depth srv =
  set_gauge srv "pool.queue_depth"
    (float_of_int (Pool.Executor.queued srv.exec))

let rec pump c =
  if (not c.busy) && not (Queue.is_empty c.q) then begin
    let e = Queue.pop c.q in
    c.busy <- true;
    match
      Pool.Executor.submit c.srv.exec (fun () ->
          (* Panic barrier.  An exception escaping [e.run] is answered
             with a typed internal error and counted; the lane and the
             worker both survive.  The [finally] releases the lane even
             when the exception is a worker-fatal one (Kill_worker,
             OOM, stack overflow) that must keep propagating to kill
             the domain — otherwise a dying worker would wedge this
             client forever. *)
          Fun.protect
            ~finally:(fun () ->
              Mutex.protect c.m (fun () ->
                  c.busy <- false;
                  pump c;
                  Condition.broadcast c.cv))
            (fun () ->
              sample_queue_depth c.srv;
              match
                Absolver_resource.Faults.hit "server.lane" Budget.unlimited;
                e.run ()
              with
              | () -> ()
              | exception ex ->
                if Pool.Executor.is_fatal ex then raise ex
                else begin
                  bump c.srv "server.errors|kind=internal" 1;
                  try e.entry_panic ex with _ -> ()
                end))
    with
    | Pool.Executor.Submitted ->
      sample_queue_depth c.srv
    | Pool.Executor.Rejected reason ->
      c.busy <- false;
      bump c.srv "server.rejected" 1;
      e.entry_reject reason;
      Condition.broadcast c.cv;
      pump c
  end

(* Flow control, not load shedding: a client that sends faster than it
   solves blocks its own reader at [client_cap] pending requests (the
   socket's kernel buffer backs further input up to the peer), so a
   scripted session is never torn by its own burstiness.  Rejection
   with a reason is reserved for genuine saturation: the executor's
   bounded global queue and the [max_clients] connection cap. *)
let enqueue c e =
  Mutex.protect c.m (fun () ->
      while
        Queue.length c.q >= c.srv.config.client_cap
        && (not c.srv.stopping)
        && not (Atomic.get c.dead)
      do
        Condition.wait c.cv c.m
      done;
      Queue.add e c.q;
      pump c)

let drain c =
  Mutex.protect c.m (fun () ->
      while c.busy || not (Queue.is_empty c.q) do
        Condition.wait c.cv c.m
      done)

(* ------------------------------------------------------------------ *)
(* JSON request execution (runs on a worker domain)                    *)
(* ------------------------------------------------------------------ *)

let finish_query c ~started ~op =
  observe c.srv "server.latency_ms" ((Clock.now () -. started) *. 1000.);
  bump c.srv ("server." ^ op) 1

let run_solve c ~id ~format ~problem ~all_models ~limit ~timeout_ms ~enqueued
    () =
  let rq = begin_request c.srv ~op:"solve" ~enqueued in
  let budget = budget_for c timeout_ms in
  let parsed =
    match format with
    | Protocol.F_dimacs -> Dimacs.parse_string problem
    | Protocol.F_smt1 -> (
      match Smt_parser.parse_benchmark problem with
      | Error e -> Error e
      | Ok b -> To_ab.convert b)
  in
  let line, verdict, run_stats =
    match parsed with
    | Error e -> (Protocol.error ~id ("parse error: " ^ e), "parse_error", None)
    | Ok prob ->
      let options = request_options c.srv rq budget in
      if all_models then begin
        match Engine.all_models ~registry:c.registry ~options ?limit prob with
        | Error e -> (Protocol.error ~id e, "error", None)
        | Ok (models, rs) ->
          bump c.srv "server.sat" (List.length models);
          ( Protocol.ok ~id
              ([
                 ("verdict", Sjson.Str "models");
                 ("count", Sjson.Num (float_of_int (List.length models)));
                 ( "models",
                   Sjson.Arr
                     (List.map
                        (fun m -> Sjson.Str (Protocol.model_to_string prob m))
                        models) );
               ]
              @ trace_fields c.srv rq),
            "models",
            Some rs )
      end
      else begin
        let result, rs = Engine.solve ~registry:c.registry ~options prob in
        let verdict =
          match result with
          | Engine.R_sat _ -> "sat"
          | Engine.R_unsat -> "unsat"
          | Engine.R_unknown _ -> "unknown"
        in
        bump c.srv ("server." ^ verdict) 1;
        ( Protocol.ok ~id
            (Protocol.verdict_fields prob result @ trace_fields c.srv rq),
          verdict,
          Some rs )
      end
  in
  end_request c.srv rq ~verdict ~run_stats;
  write_line c line

let run_smt2 c ~id ~script ~timeout_ms ~enqueued () =
  let rq = begin_request c.srv ~op:"smt2" ~enqueued in
  let budget = budget_for c timeout_ms in
  let check =
    Smt2.engine_check ~registry:c.registry
      ~options:(request_options c.srv rq budget) ()
  in
  let replies, exited = Smt2.run_string c.smt2 ~check script in
  end_request c.srv rq ~verdict:"-" ~run_stats:None;
  write_line c
    (Protocol.ok ~id
       (("replies", Sjson.Arr (List.map (fun s -> Sjson.Str s) replies))
       :: ((if exited then [ ("exited", Sjson.Bool true) ] else [])
          @ trace_fields c.srv rq)))

let handle_json_line c stop_reading line =
  match Protocol.parse_request line with
  | Error e ->
    write_line c (Protocol.error ~id:Sjson.Null ("bad request: " ^ e))
  | Ok (id, Error e) -> write_line c (Protocol.error ~id e)
  | Ok (id, Ok req) -> (
    let entry_reject reason = write_line c (Protocol.rejected ~id reason) in
    let entry_panic ex =
      write_line c (Protocol.internal_error ~id (Printexc.to_string ex))
    in
    match req with
    | Protocol.Quit ->
      stop_reading := true;
      enqueue c
        {
          run =
            (fun () -> write_line c (Protocol.ok ~id [ ("bye", Sjson.Bool true) ]));
          entry_reject;
          entry_panic;
        }
    | Protocol.Stats ->
      enqueue c
        {
          run =
            (fun () ->
              let started = Clock.now () in
              let fields = stats_fields c.srv in
              finish_query c ~started ~op:"stats";
              write_line c (Protocol.ok ~id [ ("stats", Sjson.Obj fields) ]));
          entry_reject;
          entry_panic;
        }
    | Protocol.Metrics ->
      enqueue c
        {
          run =
            (fun () ->
              let started = Clock.now () in
              let text = metrics_text c.srv in
              finish_query c ~started ~op:"metrics";
              write_line c (Protocol.ok ~id [ ("metrics", Sjson.Str text) ]));
          entry_reject;
          entry_panic;
        }
    | Protocol.Health ->
      enqueue c
        {
          run =
            (fun () ->
              let started = Clock.now () in
              let fields = health_fields c.srv in
              finish_query c ~started ~op:"health";
              write_line c (Protocol.ok ~id fields));
          entry_reject;
          entry_panic;
        }
    | Protocol.Solve { format; problem; all_models; limit; timeout_ms } ->
      let enqueued = Clock.now () in
      enqueue c
        {
          run =
            run_solve c ~id ~format ~problem ~all_models ~limit ~timeout_ms
              ~enqueued;
          entry_reject;
          entry_panic;
        }
    | Protocol.Smt2_script { script; timeout_ms } ->
      let enqueued = Clock.now () in
      enqueue c
        { run = run_smt2 c ~id ~script ~timeout_ms ~enqueued; entry_reject; entry_panic })

(* ------------------------------------------------------------------ *)
(* SMT-LIB 2 framing                                                   *)
(* ------------------------------------------------------------------ *)

let smt2_error_line reason =
  let b = Buffer.create (String.length reason + 12) in
  Buffer.add_string b "(error \"";
  String.iter
    (fun ch ->
      if ch = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b ch)
    reason;
  Buffer.add_string b "\")";
  Buffer.contents b

(* Commands are parsed on the reader thread (cheap, and it lets the
   reader see [exit]); execution — which may run a check-sat — goes
   through the lane like every other request. *)
let handle_smt2_form c stop_reading form =
  if not !stop_reading then begin
    let entry_reject reason = write_line c (smt2_error_line reason) in
    let entry_panic ex =
      write_line c (smt2_error_line ("internal error: " ^ Printexc.to_string ex))
    in
    let enqueue_error e =
      enqueue c
        {
          run = (fun () -> write_line c (smt2_error_line e));
          entry_reject;
          entry_panic;
        }
    in
    match Smt_parser.parse_sexps form with
    | Error e -> enqueue_error e
    | Ok sexps ->
      List.iter
        (fun sx ->
          if not !stop_reading then
            match Smt2.parse_command sx with
            | Error e -> enqueue_error e
            | Ok cmd ->
              if cmd = Smt2.Exit then stop_reading := true;
              let enqueued = Clock.now () in
              enqueue c
                {
                  run =
                    (fun () ->
                      (* Only [check-sat] runs the engine; it alone gets
                         the per-request trace context and latency
                         accounting, like a JSON solve. *)
                      match cmd with
                      | Smt2.Check_sat ->
                        let rq = begin_request c.srv ~op:"smt2" ~enqueued in
                        let budget = budget_for c None in
                        let check =
                          Smt2.engine_check ~registry:c.registry
                            ~options:(request_options c.srv rq budget) ()
                        in
                        let reply = Smt2.execute c.smt2 ~check cmd in
                        let verdict =
                          match reply with
                          | Smt2.R_sat -> "sat"
                          | Smt2.R_unsat -> "unsat"
                          | _ -> "unknown"
                        in
                        bump c.srv ("server." ^ verdict) 1;
                        end_request c.srv rq ~verdict ~run_stats:None;
                        (match Smt2.render c.smt2 reply with
                        | Some line -> write_line c line
                        | None -> ());
                        (* SMT-LIB has no response metadata slot, so the
                           trace keys ride an info comment — parsers
                           skip [;] lines by definition. *)
                        if tracing c.srv then
                          write_line c
                            (Printf.sprintf "; trace_id=%s span_id=%d"
                               rq.rq_trace_id rq.rq_span)
                      | _ -> (
                        let budget = budget_for c None in
                        let check =
                          Smt2.engine_check ~registry:c.registry
                            ~options:
                              {
                                c.srv.config.engine_options with
                                Engine.budget;
                                telemetry = Telemetry.disabled;
                              }
                            ()
                        in
                        let reply = Smt2.execute c.smt2 ~check cmd in
                        match Smt2.render c.smt2 reply with
                        | Some line -> write_line c line
                        | None -> ()));
                  entry_reject;
                  entry_panic;
                })
        sexps
  end

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

(* Serve one connection over raw fds.  The reader waits in bounded
   select slices (Io.read_line), so server shutdown, a peer declared
   dead by the write path, the idle timeout, the per-frame read
   deadline and the frame-size cap all interrupt it; every abnormal end
   is answered (when the framing is known), counted by reason, and
   tears down only this connection. *)
let serve_fd srv ~fd_in ~fd_out =
  if Atomic.get srv.clients >= srv.config.max_clients then
    ignore
      (Io.write_all fd_out
         (Protocol.rejected ~id:Sjson.Null
            (Printf.sprintf "server at max clients (%d)" srv.config.max_clients)
         ^ "\n"))
  else begin
    Atomic.incr srv.clients;
    Atomic.incr srv.total_clients;
    let registry, dispose = srv.config.registry () in
    let c =
      {
        srv;
        fd_out;
        out_lock = Mutex.create ();
        dead = Atomic.make false;
        disc = Atomic.make None;
        cbudget = Budget.child srv.root ();
        m = Mutex.create ();
        cv = Condition.create ();
        q = Queue.create ();
        busy = false;
        rdr = None;
        registry;
        dispose;
        smt2 = Smt2.create ();
      }
    in
    let mode = ref `Undecided in
    let rdr =
      Io.reader ~limits:srv.config.io ~chaos:true
        ~should_stop:(fun () -> srv.stopping || Atomic.get c.dead)
        ~busy:(fun () ->
          Mutex.protect c.m (fun () -> c.busy || not (Queue.is_empty c.q)))
        fd_in
    in
    c.rdr <- Some rdr;
    let stop_reading = ref false in
    let buf = Buffer.create 256 in
    (* A limit violation still gets one framed error line (when the
       framing is already known) before the connection is torn down. *)
    let abnormal reason msg =
      (match !mode with
      | `Json -> write_line c (Protocol.error ~id:Sjson.Null msg)
      | `Smt2 -> write_line c (smt2_error_line msg)
      | `Undecided -> ());
      record_disconnect c reason;
      (* reclaim, don't linger: queued and in-flight work of a torn
         connection is cancelled outright *)
      Budget.cancel c.cbudget;
      stop_reading := true
    in
    while not !stop_reading do
      match Io.read_line rdr with
      | Io.Stopped ->
        record_disconnect c (if srv.stopping then "shutdown" else "dead_peer");
        stop_reading := true
      | Io.Eof ->
        (* Orderly half-close: pending work still drains and replies
           still go out (batch usage pipes a script in and reads the
           answers).  A fully closed peer surfaces at the next write. *)
        record_disconnect c "eof";
        stop_reading := true
      | Io.Idle_timeout ->
        bump srv "server.errors|kind=idle_timeout" 1;
        abnormal "idle_timeout" "idle timeout, closing connection"
      | Io.Read_deadline ->
        bump srv "server.errors|kind=read_deadline" 1;
        abnormal "read_deadline" "read deadline exceeded, closing connection"
      | Io.Frame_too_large ->
        bump srv "server.errors|kind=oversize" 1;
        abnormal "oversize"
          (Printf.sprintf "frame exceeds %d bytes" srv.config.io.Io.max_frame_bytes)
      | Io.Io_error msg ->
        bump srv "server.errors|kind=io_read" 1;
        abnormal "io_error" ("read error: " ^ msg)
      | Io.Line line -> (
        let trimmed = String.trim line in
        match !mode with
        | `Undecided when trimmed = "" -> ()
        | _ -> (
          let m =
            match !mode with
            | `Undecided ->
              (* framing auto-detection: a JSON request line must
                 start with '{'; anything else is an smt2 stream *)
              let m = if trimmed.[0] = '{' then `Json else `Smt2 in
              mode := m;
              m
            | (`Json | `Smt2) as m -> m
          in
          match m with
          | `Json -> handle_json_line c stop_reading line
          | `Smt2 ->
            Buffer.add_string buf line;
            Buffer.add_char buf '\n';
            (* the multi-line smt2 accumulator obeys the same frame
               cap as the line reader *)
            if Buffer.length buf > srv.config.io.Io.max_frame_bytes then begin
              bump srv "server.errors|kind=oversize" 1;
              abnormal "oversize"
                (Printf.sprintf "frame exceeds %d bytes"
                   srv.config.io.Io.max_frame_bytes)
            end
            else begin
              let forms, rest = Smt2.split_complete (Buffer.contents buf) in
              Buffer.clear buf;
              Buffer.add_string buf rest;
              List.iter (handle_smt2_form c stop_reading) forms
            end))
    done;
    record_disconnect c "exit";
    drain c;
    c.dispose ();
    Atomic.decr srv.clients
  end

let serve_channel srv ic oc =
  (* all I/O goes through the raw fds; the channels are only carriers
     (their buffers are never used, so the caller's close is safe) *)
  serve_fd srv ~fd_in:(Unix.descr_of_in_channel ic)
    ~fd_out:(Unix.descr_of_out_channel oc)

(* A leftover socket file from a crashed daemon must not block restart,
   but silently unlinking the path would also hijack a live daemon's
   socket (or destroy an unrelated file).  So: only a socket nobody
   answers on is stale, and only stale sockets are removed. *)
let remove_stale_socket path =
  match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let alive =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if alive then
      Error (Printf.sprintf "%s: a live daemon is already serving this socket" path)
    else begin
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Ok ()
    end
  | _ -> Error (Printf.sprintf "%s: exists and is not a socket" path)

let serve_socket_bound srv ~path =
  match
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind sock (Unix.ADDR_UNIX path);
       Unix.listen sock 64
     with e ->
       (try Unix.close sock with Unix.Unix_error _ -> ());
       raise e);
    sock
  with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | sock ->
    Mutex.protect srv.lock (fun () -> srv.listener <- Some sock);
    if srv.stopping then (try Unix.close sock with Unix.Unix_error _ -> ());
    let threads = ref [] in
    let rec loop () =
      if not srv.stopping then
        match Unix.accept sock with
        | exception
            Unix.Unix_error
              ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _) ->
          ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | exception Unix.Unix_error (_, _, _) ->
          (* a transient accept failure must never kill the daemon *)
          Unix.sleepf 0.01;
          loop ()
        | fd, _ ->
          if srv.stopping then (try Unix.close fd with Unix.Unix_error _ -> ())
          else if Absolver_resource.Faults.Net.on_accept () then begin
            (* chaos: the network refused this connection — the client
               sees an immediate reset and is expected to retry *)
            Io.sever fd;
            (try Unix.close fd with Unix.Unix_error _ -> ());
            loop ()
          end
          else begin
            Mutex.protect srv.lock (fun () ->
                srv.client_fds <- fd :: srv.client_fds);
            let th =
              Thread.create
                (fun () ->
                  (try serve_fd srv ~fd_in:fd ~fd_out:fd with _ -> ());
                  Mutex.protect srv.lock (fun () ->
                      srv.client_fds <-
                        List.filter (fun f -> f != fd) srv.client_fds);
                  (try Unix.shutdown fd Unix.SHUTDOWN_ALL
                   with Unix.Unix_error _ -> ());
                  try Unix.close fd with Unix.Unix_error _ -> ())
                ()
            in
            threads := th :: !threads;
            loop ()
          end
    in
    loop ();
    List.iter Thread.join !threads;
    Mutex.protect srv.lock (fun () -> srv.listener <- None);
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    Ok ()

let serve_socket srv ~path =
  match remove_stale_socket path with
  | Error _ as e -> e
  | Ok () -> serve_socket_bound srv ~path

(* ------------------------------------------------------------------ *)
(* Shutdown                                                            *)
(* ------------------------------------------------------------------ *)

(* Deliberately lock-free (reads of [listener]/[client_fds] may race
   with the accept loop, harmlessly — readers also poll [stopping]):
   this must be safe to call from a SIGTERM handler. *)
let request_stop srv =
  srv.stopping <- true;
  Budget.cancel srv.root;
  (match srv.listener with
  | Some fd -> (
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    srv.client_fds

let shutdown srv =
  request_stop srv;
  let deadline = Clock.now () +. 10.0 in
  while Atomic.get srv.clients > 0 && Clock.now () < deadline do
    Unix.sleepf 0.01
  done;
  Pool.Executor.shutdown srv.exec;
  (* Seal the trace (final counter/gauge totals, flush).  Aggregates
     stay readable: [stats_json] / [metrics_text] still answer. *)
  Mutex.protect srv.tel_lock (fun () -> Telemetry.close srv.tel)
