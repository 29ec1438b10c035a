(** Zero-dependency observability: monotonic clock, hierarchical spans
    with cross-domain trace context, named monotone counters and gauges,
    log-bucketed histograms, pluggable sinks.

    The paper's evaluation (Sec. 5) is entirely about where the time goes
    — which subsystem rejects a candidate model, how many Boolean models
    the control loop burns, how the solvers compare. This module is the
    machinery behind that kind of accounting: the engine (and anything
    else) opens {e spans} around its phases, adds up {e counters} of the
    work done, and a sink turns the stream into either an in-memory
    aggregate (for [--stats] / [--stats-json]) or a JSONL trace file (for
    [--trace]).

    Span ids are allocated from one process-wide counter, so spans
    recorded by different handles never collide; {!fork} hands a server
    request a {e linked} handle that shares the parent's trace sink and
    id space and remembers which span it hangs under. A query that
    passes from a connection's reader thread to an executor domain
    therefore yields one connected span tree in the trace, stitched by
    parent links alone.

    A disabled handle ({!disabled}) compiles every operation down to a
    single pattern match on an immutable constructor — the instrumented
    code paths pay no measurable cost when telemetry is off, which is what
    lets the instrumentation live permanently in the hot loops'
    surroundings. *)

(** {1 Monotonic clock shim}

    The stdlib has no monotonic clock and this library links no C stubs,
    so the shim monotonizes [Unix.gettimeofday]: readings never decrease
    even across wall-clock jumps (NTP steps, DST). All span timestamps and
    every timing in the engine and bench harness go through it. *)
module Clock : sig
  val now : unit -> float
  (** Monotonic (never-decreasing) seconds since an arbitrary epoch fixed
      at module initialization. *)

  val wall : unit -> float
  (** The raw wall clock, for human-facing timestamps only. *)
end

(** {1 Values and handles} *)

type value = Int of int | Float of float | String of string | Bool of bool
(** Attribute values attached to spans and events. *)

type t
(** A telemetry handle: either disabled (all operations no-ops) or an
    enabled recorder with an in-memory aggregator and an optional JSONL
    trace sink. Enabled handles are domain-safe — every operation takes
    an internal lock — but spans opened concurrently from several domains
    interleave on one stack and nest meaninglessly; a concurrent
    recorder (a server request) records into a {!fork} of the shared
    handle and {!merge}s it back when done. *)

val disabled : t
(** The null sink. [enabled disabled = false]; every operation is a
    no-op. This is the default everywhere. *)

val create : ?trace:out_channel -> unit -> t
(** An enabled recorder. Aggregation (counter totals, per-span-name call
    counts and cumulative durations, histograms) is always on; [trace]
    additionally streams spans, events and final counter totals as JSONL
    (one object per line) to the channel. The caller owns the channel;
    call {!close} before closing it. *)

val enabled : t -> bool

(** {1 Trace context}

    A {e trace id} names one logical request end to end; every span a
    handle records while a trace id is set carries it in the trace
    stream, so one file multiplexing many concurrent requests can be
    sliced back into per-request trees. *)

val mint_trace_id : unit -> string
(** A fresh process-unique trace id (16 lowercase hex chars). *)

val set_trace_id : t -> string -> unit
(** Tag every span recorded by this handle from now on. *)

val trace_id : t -> string option
(** The handle's current trace id, if any. *)

val current_span : t -> int
(** The innermost open span's id — the parent a new child would get.
    Falls back to the handle's fork parent when no span is open; [-1]
    when disabled or at top level. *)

val fork : ?parent:int -> ?trace_id:string -> t -> t
(** [fork t] is a linked child handle: it shares [t]'s trace sink and the
    process-wide span-id space, inherits [t]'s trace id (unless
    [trace_id] overrides it), and parents its top-level spans under
    [parent] (default: [current_span t] at fork time). Counters, gauges,
    histograms and span aggregates accumulate locally — hand the fork to
    a server request, then {!merge} it back. Forking
    {!disabled} yields {!disabled}. *)

(** {1 Spans}

    Spans nest: the innermost open span is the parent of the next one
    opened. A span keeps no counters of its own: whoever closes it may
    hand {!span_close} the counter deltas it measured while the span was
    open ("12 pivots happened inside this linear check"), which the trace
    records with the span. *)

val span : t -> ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span named [name]. Exception-safe:
    the span is closed (and traced) even if [f] raises. *)

val span_open : t -> ?attrs:(string * value) list -> string -> int
(** Manual span begin, for non-lexical extents. Returns a span id
    ([-1] when disabled). *)

val span_close :
  t -> ?attrs:(string * value) list -> ?counters:(string * int) list -> int -> unit
(** Close the span [id]. Any spans opened after it that are still open
    are closed first (closing is properly nested by construction) and
    marked with an [abandoned:true] attribute, so a truncated trace is
    distinguishable from a clean one. Extra [attrs] are appended to the
    span's record. [counters] (default none) are the deltas of the
    counters that moved while the span was open: the trace records them
    as the span's [counters] object, and the handle's totals ({!add})
    do not change. The engine's spans pass them from the run's counter
    store; other spans carry none. *)

val event : t -> ?attrs:(string * value) list -> string -> unit
(** A point-in-time occurrence, attributed to the innermost open span. *)

(** {1 Counters and gauges} *)

val add : t -> string -> int -> unit
(** [add t name d] bumps the monotone counter [name] by [d] (negative
    deltas are ignored: counters are monotone by contract). *)

val set_gauge : t -> string -> float -> unit
(** Record the latest value of a non-monotone quantity. *)

val counter : t -> string -> int
(** Current total of a counter (0 when disabled or never bumped). *)

(** {1 Histograms}

    Observed samples (latencies, pivot counts, sizes…) land in sparse
    log-bucketed histograms: bucket [i] covers [(γ^(i-1), γ^i]] with
    γ = 2{^1/4} ≈ 1.189, one extra bucket holds non-positive samples.
    Count/sum/min/max are exact; quantiles are estimated from the bucket
    boundaries and are accurate within a factor of √γ ≈ 1.09. Unlike a
    sample window, bucket counts merge exactly and associatively — the
    property that lets per-request histograms fold into
    the server's long-running aggregate without bias. *)

val hist_gamma : float
(** The bucket growth factor γ = 2{^1/4}. *)

type hist = {
  h_count : int;  (** samples observed (exact) *)
  h_sum : float;  (** sum of all samples (exact) *)
  h_min : float;
  h_max : float;
  h_buckets : (float * int) list;
      (** occupied buckets, ascending by bound: [(ub, n)] means [n]
          samples in [(ub/γ, ub]]; bound [0.] holds samples [<= 0]. *)
}

val observe : t -> string -> float -> unit
(** Record one sample into the named histogram. No-op when disabled. *)

val histogram : t -> string -> hist option
val histograms : t -> (string * hist) list
(** All histograms, sorted by name. Empty when disabled. *)

val hist_quantile : hist -> float -> float
(** Nearest-rank quantile estimate, [q] in [0,1] (e.g. [0.99] for p99):
    the geometric midpoint of the bucket holding the rank, clamped to
    [[h_min, h_max]]. 0 on an empty histogram. *)

val hist_cumulative : hist -> (float * int) list
(** Cumulative counts by ascending upper bound — the Prometheus
    [_bucket{le=...}] view. The final entry's count equals [h_count]. *)

(** {1 Reading the aggregate} *)

type span_agg = {
  agg_calls : int;
  agg_total_s : float;  (** cumulative duration over all calls *)
  agg_max_s : float;
}

val counters : t -> (string * int) list
(** All counter totals, sorted by name. Empty when disabled. *)

val gauges : t -> (string * float) list

val span_aggregates : t -> (string * span_agg) list
(** Per-span-name aggregates, sorted by name. Empty when disabled. *)

val merge : t -> t -> unit
(** [merge dst src] folds [src]'s aggregate into [dst]: counters add,
    span aggregates combine (calls and totals add, maxima max), gauges
    last-write-wins, histograms merge bucket-wise (exactly). If [dst]
    has no trace id and [src] does, the id is preserved onto [dst].
    Trace lines are not merged — a {!fork} already writes into the
    shared sink, so there is nothing to move. No-op when either handle
    is disabled. This is the closing half of the per-request-handle
    discipline of the solve server: each request records into a fork,
    and the server merges it when the request ends. *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable summary: span table (calls, total, max) then counter
    totals then gauges — the body of the CLI's [--stats]. *)

val stats_json : t -> string
(** The aggregate as one JSON object:
    [{"counters":{...},"gauges":{...},"spans":{name:{"calls":..,"total_s":..,"max_s":..}}}]
    plus, when any sample was observed, a ["hists"] object with
    count/sum/min/max/p50/p95/p99 per histogram. *)

val flush : t -> unit
(** Flush the trace sink, if any. Cheap; safe from any linked handle. *)

val close : t -> unit
(** Close any spans left open (marked [abandoned:true]), emit the final
    counter/gauge totals to the trace sink (if any, and only from the
    handle that {!create}d it — forks stay quiet) and flush it. The
    handle stays readable (aggregates survive) but must not record
    further spans. *)

(** {1 JSON helpers}

    Shared by the CLI and bench harness so every JSON we emit escapes
    strings and formats floats the same way. *)
module Json : sig
  val escape : string -> string
  (** Contents properly escaped for a double-quoted JSON string (quotes
      not included). *)

  val of_value : value -> string
  val of_float : float -> string
  (** Plain decimal, never OCaml's [nan]/[infinity] (clamped to null). *)

  val obj : (string * string) list -> string
  (** [obj [(k, v); ...]] where each [v] is already-rendered JSON. *)
end
