(** ABSOLVER's control loop (paper Sec. 4).

    The engine queries a Boolean solver for one model (or enumerates all
    of them), induces the delta-valuation of the defined arithmetic
    constraints, builds the arithmetic subsystem — splitting negated
    equations into their [<] and [>] branches as in Sec. 1 — checks the
    linear part with the linear solver, feeds the smallest conflicting
    subset back to the SAT solver as a blocking clause on infeasibility,
    and calls the nonlinear solver whenever the circuit's output pin is
    still [?]. Iteration continues until a solution is found or all
    Boolean assignments are exhausted. *)

module Types = Absolver_sat.Types

type options = {
  minimize_conflicts : bool;
      (** Post-process linear conflict sets with deletion filtering
          (guaranteed-minimal hints; ablation switch). *)
  max_bool_models : int; (** Safety cap on examined Boolean models. *)
  eq_split_limit : int;
      (** Maximum number of negated equations branched per model. *)
  sat_max_conflicts : int;
  max_unknown_models : int;
      (** Give up after this many Boolean models whose arithmetic part
          could not be decided. *)
  default_phase : bool;
      (** Initial polarity of the Boolean solver's decisions; [true] makes
          early models assert constraints positively, which arithmetic
          subsystems tend to tolerate better. *)
  use_linear_relaxation : bool;
      (** Relax nonlinear constraints into the linear check by replacing
          maximal nonlinear subterms with interval-bounded auxiliary
          variables: blatantly contradictory delta-valuations then die in
          the cheap solver with small cores (ablation switch). *)
  use_bp_relaxation : bool;
      (** No effect. The per-node branch-and-prune LP relaxation this
          switch used to control has been removed; the field is kept only
          because [benchsuite/verify.ml] still sets it, and goes with the
          next change to the benchmark suite. The engine's one linear
          relaxation of nonlinear terms is [use_linear_relaxation]. *)
  use_presolve : bool;
      (** Run the {!Preprocess} layer (SAT inprocessing, LP presolve,
          interval propagation) before search. On by default; off restores
          the exact pre-presolve behaviour (ablation switch). *)
  use_incremental : bool;
      (** Route LP queries through one persistent warm-started simplex
          session per enumeration (constraint-delta assert/retract over
          a warm tableau) instead of solving each query from scratch. On by default; off ([CLI
          --no-incremental]) restores the paper's restart-per-model
          behaviour. Verdict-equivalent either way — only pivot counts
          and wall time change. *)
  telemetry : Absolver_telemetry.Telemetry.t;
      (** Observability handle. Disabled by default (no-op); an enabled
          handle records hierarchical spans over every phase of the
          control loop — presolve (and its per-round passes), each
          [sat_search], each Boolean model's arithmetic check with its
          [linear_check] / [nonlinear_check] children — plus the run's
          counters (see {!counters}) as per-span deltas, and
          one [blocking_clause] event per learned blocking clause with
          its conflict-set size. Results are bit-identical with telemetry
          on or off; only observation is added. *)
  budget : Absolver_resource.Budget.t;
      (** Resource governor handle, threaded through every hot loop of the
          pipeline (presolve passes, CDCL search, simplex pivoting,
          branch-and-prune). [Budget.unlimited] by default — a no-op with
          bit-identical results. When a deadline, step budget, memory
          budget or cancellation trips, the engine degrades gracefully:
          the result becomes [R_unknown] with the typed reason mirrored in
          [run_stats.budget_exhausted], and partial results (models found
          so far, the optimization incumbent) are preserved. Budget
          pressure may turn SAT/UNSAT into UNKNOWN but never flips an
          answer, and no exception ever escapes a public entry point. *)
}

val default_options : options

type result =
  | R_sat of Solution.t
  | R_unsat
  | R_unknown of string (** why the engine could not decide *)

val pp_result : Ab_problem.t -> Format.formatter -> result -> unit

(** {1 Run statistics}

    Each solve counts its own work in counters declared once in the
    engine under their telemetry names. A counter moves into the run's
    store and [options.telemetry] in one step, so {!counter},
    {!pp_run_stats}, {!run_stats_json} and the telemetry counters agree,
    and concurrent solves count only their own work:
    - [engine.*]: [bool_models], [linear_checks], [linear_conflicts],
      [nonlinear_calls], [blocking_clauses], [eq_branches] (sign
      combinations of negated equations tried), [unknown_models];
    - [presolve.*]: the {!Preprocess.stats} counts;
    - [sat.*]: CDCL work summed over every SAT call;
    - [lp.pivots]: pivots of the linear checks and witness re-solves;
      [lp.inc.*]: the warm session's solves, and constraints asserted,
      retracted and reused across consecutive queries;
    - [nlp.nodes], [nlp.prunings], [nlp.newton_steps]: branch-and-prune
      work; [nlp.hc4_revisions]: HC4 revise passes, presolve's included. *)

type counts
(** A run's counter store; read it with {!counter} or {!counters}. *)

type run_stats = {
  counts : counts;
  mutable wall_seconds : float;
  mutable presolve_seconds : float;  (** Presolve wall time. *)
  mutable budget_exhausted : Absolver_resource.Absolver_error.t option;
      (** [Some reason] iff the run's budget tripped (or a stray exception
          was contained at the boundary); [None] on unbudgeted runs and on
          runs that finished within budget. *)
  mutable alloc_minor_words : float;
      (** Words allocated in the minor heap during the run
          ([Gc.minor_words] delta). *)
  mutable alloc_major_words : float;
      (** Words allocated directly in the major heap during the run
          ([Gc.major_words - promoted_words] delta, so minor allocations
          that survived a collection are not double-counted). *)
}

val counter : run_stats -> string -> int
(** [counter st name] is the run's count under the telemetry name [name]
    (e.g. ["engine.bool_models"]).
    @raise Invalid_argument if the engine declares no such counter. *)

val counters : run_stats -> (string * int) list
(** Every counter, zeros included, in declaration order. *)

val alloc_snapshot : unit -> float * float
(** Words allocated so far by the calling domain: minor-heap words
    (exact at every call) and words allocated directly in the major heap.
    A run's [alloc_*_words] are the difference of two snapshots. *)

val pp_run_stats : Format.formatter -> run_stats -> unit
(** The [--stats] line: the headline counters in declaration order
    ([models=… lin-checks=… … presolve[fixed=… removed=… tightened=…]
    sat[…] pivots=… lp-inc[…] bp[nodes=… prunings=…]]), then
    [time=], [presolve-time=] and [alloc[minor=… major=…]]. *)

val run_stats_json : run_stats -> string
(** One flat JSON object: every counter under its telemetry name, then
    [wall_seconds], [presolve_seconds], [alloc_minor_words],
    [alloc_major_words] and [budget_exhausted]. The canonical
    machine-readable rendering used by the CLI's [--stats-json] and the
    bench harness. *)

val solve :
  ?registry:Registry.t -> ?options:options -> Ab_problem.t -> result * run_stats

(** {1 Portfolio mode}

    Race several complete decision procedures on separate domains and
    take the first definitive verdict (Sec. 4's "list of solvers", run
    concurrently instead of in order).  Each competitor gets a budget
    forked from [options.budget] and a private telemetry handle merged
    back at join; the winner's verdict cancels the losers cooperatively
    (they unwind at their next budget poll — no preemption). *)

type competitor = {
  cp_name : string;
  cp_solve :
    budget:Absolver_resource.Budget.t ->
    telemetry:Absolver_telemetry.Telemetry.t ->
    Ab_problem.t ->
    result;
}

val engine_competitor :
  ?registry:Registry.t -> ?options:options -> ?name:string -> unit -> competitor
(** This engine as a competitor: {!solve} with the race's budget and
    telemetry substituted into [options]. *)

val solve_portfolio :
  ?options:options -> competitors:competitor list -> Ab_problem.t -> result * string option
(** [solve_portfolio ~competitors problem] returns the winning verdict
    and the winner's name.  [R_sat]/[R_unsat] are decisive; if every
    competitor returns [R_unknown], the first competitor's verdict (and
    its reason) is kept and the winner is [None].  The concrete
    engine-vs-DPLL(T)-baselines portfolio lives in
    [Absolver_baselines.Portfolio] (the baselines library depends on this
    one, so the engine only defines the generic race). *)

val all_models :
  ?projection:Types.var list ->
  ?registry:Registry.t ->
  ?options:options ->
  ?limit:int ->
  Ab_problem.t ->
  (Solution.t list * run_stats, string) Stdlib.result
(** Every arithmetically-feasible Boolean model, each with a witness —
    the LSAT-powered mode the paper recommends for consistency-based
    diagnosis and test-case generation (Sec. 4, Sec. 6).

    Anytime semantics under a budget: if the enumeration is cut short by
    the budget, the call still returns [Ok] with the models found so far
    and [run_stats.budget_exhausted = Some reason]; only non-budget
    unknowns (and unbudgeted incompleteness) use the [Error] path. *)

val count_models :
  ?registry:Registry.t ->
  ?options:options ->
  Ab_problem.t ->
  (int * run_stats, string) Stdlib.result
(** Like {!all_models} but returning only the count — with the run's
    statistics, so callers can report enumeration effort. *)

(** {1 Optimization modulo the Boolean structure}

    An OMT-flavoured extension: maximize a linear objective over {e all}
    arithmetically feasible delta-valuations of a (linear) AB-problem —
    the Boolean solver enumerates the disjuncts, the simplex optimizer
    solves each polytope, and the best vertex wins. *)

type opt_outcome =
  | Opt_best of Absolver_numeric.Rational.t * Solution.t
      (** optimal value and an attaining solution — claimed only when the
          delta-valuation enumeration ran to completion *)
  | Opt_incumbent of Absolver_numeric.Rational.t * Solution.t
      (** best value found before the search was cut short (budget
          exhausted, [limit] reached, or an undecidable model): a sound
          lower bound on the optimum for [`Maximize] (upper for
          [`Minimize]), not a proof of optimality *)
  | Opt_unbounded
  | Opt_unsat
  | Opt_unknown of string

val optimize :
  ?registry:Registry.t ->
  ?options:options ->
  ?limit:int ->
  objective:Absolver_lp.Linexpr.t ->
  [ `Maximize | `Minimize ] ->
  Ab_problem.t ->
  opt_outcome
(** Rejects problems with nonlinear definitions ([Opt_unknown]); [limit]
    caps the number of delta-valuations explored (default 10000). Negated
    equalities are disjunctive; they are optimized within the branch the
    enumeration witness satisfies.

    An incomplete search that holds an incumbent reports {!Opt_incumbent},
    never {!Opt_best} (historically this overclaimed optimality) and never
    silently [Opt_unknown]. *)
