(** The solver registry — ABSOLVER's extensibility point (Sec. 4).

    "At each of those steps a list of solvers is used, if more than one
    solver is enabled for some domain and the preceding solvers thereof
    failed to provide a decent result." Each domain is a list of named
    solvers tried in order; users plug in their own by providing the
    closures, which is how the paper's "reuse of expert knowledge" is
    realized. The defaults wire in this repository's own substrates
    (CDCL / all-SAT enumeration, exact simplex, branch-and-prune). *)

module Q = Absolver_numeric.Rational
module Types = Absolver_sat.Types
module Expr = Absolver_nlp.Expr
module Linexpr = Absolver_lp.Linexpr

(** How Boolean models are enumerated. [Lsat_incremental] keeps a single
    solver instance and blocks models with added clauses (LSAT [2]);
    [Chaff_restarting] restarts a fresh solver per model, the behaviour
    the paper describes for black-box solvers like zChaff. *)
type bool_strategy = Lsat_incremental | Chaff_restarting

type bool_solver = { bs_name : string; bs_strategy : bool_strategy }

type linear_verdict =
  | L_sat of (int * Q.t) list (** values for the structural variables *)
  | L_unsat of int list (** tags of an inconsistent subset *)
  | L_unknown of Absolver_resource.Absolver_error.t
      (** the solver gave up (budget exhausted, cancelled, internal cap) *)

type linear_session = {
  lsess_solve : int_vars:int list -> Linexpr.cons list -> linear_verdict;
  lsess_counters : unit -> (string * int) list;
}
(** A stateful linear-solver session: successive [lsess_solve] calls may
    reuse solver state from earlier calls (a warm-started tableau), but
    each call must decide exactly the constraint set it is given.
    [lsess_counters] returns the work done since its previous call (or
    since the session was acquired) under engine counter names
    ([lp.pivots], [lp.inc.*]; see {!Engine.counters}); the engine reads
    it after every solve. *)

type linear_solver = {
  ls_name : string;
  ls_solve :
    int_vars:int list ->
    budget:Absolver_resource.Budget.t ->
    Linexpr.cons list ->
    linear_verdict * int;
      (** The verdict, and the pivots the call performed (0 for a solver
          that does not pivot). *)
  ls_session : (budget:Absolver_resource.Budget.t -> linear_session) option;
      (** When provided and the engine runs with [use_incremental], the
          engine creates one session per enumeration and routes every LP
          query through it instead of [ls_solve]. *)
}
(** Solver closures receive the engine's budget and must honour the
    no-escape contract: exhaustion is reported as [L_unknown] /
    [N_unknown], never raised across the registry boundary. *)

type nonlinear_verdict =
  | N_sat of float array (** certified witness (indexed by arith var) *)
  | N_approx of float array (** tolerance-level witness *)
  | N_unsat
  | N_unknown

type nonlinear_solver = {
  ns_name : string;
  ns_solve :
    budget:Absolver_resource.Budget.t ->
    telemetry:Absolver_telemetry.Telemetry.t ->
    nvars:int ->
    box:Absolver_nlp.Box.t ->
    Expr.rel list ->
    nonlinear_verdict * Absolver_nlp.Branch_prune.stats;
}
(** [telemetry] is the engine's handle with the [nonlinear_check] span
    open; oracles that fan out over domains fork it per worker so a
    traced run stays one connected span tree (and may record their own
    histograms, e.g. [nlp.bp_depth]). A solver free of instrumentation
    just ignores it.

    The returned {!Absolver_nlp.Branch_prune.stats} carries per-solve
    search counters for the engine's run statistics; a solver
    without such instrumentation returns
    {!Absolver_nlp.Branch_prune.empty_stats}. *)

type t = {
  boolean : bool_solver list;
  linear : linear_solver list;
  nonlinear : nonlinear_solver list;
}

val cdcl_solver : bool_solver
(** zChaff stand-in: restarting enumeration. *)

val lsat_solver : bool_solver
(** LSAT stand-in: incremental enumeration. *)

val simplex_solver : linear_solver
(** COIN stand-in: exact rational simplex with branch-and-bound for
    integer variables. Provides an incremental session with a
    warm-started tableau ({!Absolver_lp.Incremental}). *)

val persistent_simplex : unit -> linear_solver * (unit -> unit)
(** A simplex whose warm session outlives any single enumeration: every
    [ls_session] acquisition re-governs and returns the {e same}
    underlying {!Absolver_lp.Incremental} session, so consecutive solve
    requests reuse asserted constraints and the tableau basis across
    requests — the solve server keeps one per
    client connection.  Session counters are delta'd per read, so
    per-run statistics stay attributable.  The second component tears the
    warm session down (the server calls it on client disconnect; a later
    acquisition starts fresh).  Each call builds an independent session —
    state never leaks between two [persistent_simplex] values. *)

val branch_prune_solver :
  ?config:Absolver_nlp.Branch_prune.config ->
  ?jobs:int ->
  unit ->
  nonlinear_solver
(** IPOPT stand-in: interval branch-and-prune.  [jobs > 1] runs the
    oracle's box worklist on that many worker domains (see
    {!Absolver_nlp.Branch_prune.solve}); the default 1 is the historical
    sequential search. *)

val default : t
(** LSAT + simplex + branch-and-prune (the combination used for Tables 1
    and 3 of the paper, modulo substitutions). *)

val with_chaff : t
(** zChaff-style restarting Boolean enumeration (Table 1's combination). *)
