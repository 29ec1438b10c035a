(** Solver-as-a-service: a long-running daemon multiplexing concurrent
    solve jobs over the shared domain pool (DESIGN.md §13).

    Clients connect over a Unix-domain socket (or drive stdin/stdout)
    and speak either line-delimited JSON ({!Protocol}) or a raw
    SMT-LIB 2 command stream ({!Absolver_smtlib.Smt2}) — the framing is
    auto-detected per connection from the first non-blank byte ([{]
    means JSON).  Each connection gets a reader thread (I/O-bound, on
    the main domain), one warm persistent simplex session
    ({!Absolver_core.Registry.persistent_simplex}, torn down at
    disconnect) and a {e serial lane}: its requests run one at a time,
    in arrival order, on the shared {!Pool.Executor}
    worker domains — concurrency comes from multiple clients, so a
    connection's responses are deterministic and FIFO.

    Admission control is three-layered: a connection cap
    ([max_clients], refused connections get one ["status":"rejected"]
    line), a per-client pending cap ([client_cap], {e flow control}: the
    client's own reader stops consuming input until its lane drains, so
    a scripted session is never torn by its own burstiness) and the
    executor's bounded queue as global backstop (a request that cannot
    be admitted there is answered immediately with
    ["status":"rejected"] and the executor's reason).  Nothing is ever
    dropped silently.

    Every request runs under a budget {!Absolver_resource.Budget.child}
    of the server's root, so one SIGTERM cancels everything in flight
    cooperatively; timeouts degrade to ["verdict":"unknown"] replies,
    never to a dead connection. *)

type config = {
  max_clients : int;  (** concurrent connections (default 32) *)
  client_cap : int;
      (** pending (queued, not yet running) requests per client before
          the reader stops consuming input (default 8) *)
  queue_capacity : int;  (** executor backstop queue (default 64) *)
  workers : int;  (** solver worker domains *)
  restart_limit : int;
      (** worker-domain replacements the executor's supervisor may spawn
          over its lifetime (default 8); past it the pool shrinks and
          [health] reports ["degraded"] *)
  default_timeout_ms : int option;
      (** per-request deadline when the request names none;
          [None] = unbounded (still cancellable via shutdown) *)
  io : Io.limits;
      (** connection I/O hardening: idle timeout, per-frame read
          deadline, frame-size cap (default {!Io.default_limits};
          {!Io.unlimited} restores the pre-hardening behaviour) *)
  engine_options : Absolver_core.Engine.options;
      (** base options; each request overrides [budget] and [telemetry]
          (solve/smt2 requests run under a per-request fork of the
          server's handle, merged back at request end) *)
  registry : unit -> Absolver_core.Registry.t * (unit -> unit);
      (** per-client registry factory; the second component disposes
          client-held state at disconnect.  Default: {!Absolver_core.Registry.default}
          with the linear solver replaced by a fresh
          [persistent_simplex]. *)
  trace : out_channel option;
      (** JSONL request-trace sink (default [None]).  When set, every
          solve/smt2 request records a [server.request] root span with
          the engine's span tree (and its pool forks) beneath it, all
          tagged with the request's minted trace id; responses echo
          ["trace_id"]/["span_id"] (JSON) or an [; trace_id=...] info
          comment (SMT-LIB 2).  The caller owns the channel; close it
          after {!shutdown}. *)
  slow_log : out_channel option;
      (** structured slow-query JSONL sink (default [None]): one
          [{"type":"slow_query",...}] object per request at or over
          {!field-slow_ms}, with op, verdict, latency, budget outcome
          and trace id. *)
  slow_ms : float;  (** slow-query threshold, milliseconds (default 100) *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t
(** Build the server: spawns the executor's worker domains. *)

val serve_channel : t -> in_channel -> out_channel -> unit
(** Serve one connection on explicit channels (the CLI's stdio mode and
    the tests' pipe harness); returns when the peer sends [exit] /
    [(exit)] or closes its end, with the client's session disposed. *)

val serve_socket : t -> path:string -> (unit, string) result
(** Bind a Unix-domain socket at [path], then accept-loop until
    {!request_stop}; each connection is served on its own thread.  A
    leftover socket file is removed only after a connect probe fails
    (a crashed daemon's residue must not block restart, but a live
    daemon's socket — or a non-socket file — is never hijacked:
    [Error] instead).  Blocks the calling thread; returns after the
    listener closed and every connection drained, with the socket file
    removed. *)

val request_stop : t -> unit
(** Begin shutdown: stop accepting, cancel the root budget (every
    in-flight request trips to [unknown] at its next poll), and shut
    down client sockets so reader threads see EOF.  Async-signal-safe
    enough for a SIGTERM handler: flips flags and closes descriptors,
    never blocks. *)

val shutdown : t -> unit
(** {!request_stop}, then drain: wait for connections to finish and the
    executor to join its domains.  Idempotent. *)

val stats_json : t -> string
(** The [stats] op's payload: queries served by op and verdict,
    rejections, budget trips, end-to-end latency quantiles
    (p50/p95/p99 ms, estimated from the shared latency histogram),
    executor occupancy, connection counts, uptime. *)

val metrics_text : t -> string
(** The [metrics] op's payload: the server aggregate in Prometheus
    text-exposition format — request counters, liveness gauges
    (refreshed at render time), latency / queue-wait / allocation /
    pivot / branch-and-prune-depth histograms with cumulative
    [_bucket{le=...}] series, and per-span-name call/seconds totals.
    Also reachable without a connection (the CLI's [--metrics-file]
    writes it at exit). *)

val health_fields : t -> (string * Sjson.t) list
(** The [health] op's payload fields (also usable before [create]d
    servers go public): ["health"], uptime, client/worker occupancy,
    whether the server still accepts work. *)
