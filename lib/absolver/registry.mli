(** The solver registry — ABSOLVER's extensibility point (Sec. 4).

    The paper enables solvers per domain and, "if more than one solver
    is enabled for some domain and the preceding solvers thereof failed
    to provide a decent result", tries the next. Here the Boolean
    domain picks the strategy of the one model enumerator
    ({!Absolver_sat.All_sat}), the linear domain takes one solver, and
    the nonlinear domain a list tried in order until one decides. Users plug in their own by
    providing the closures, which is how the paper's "reuse of expert
    knowledge" is realized. The defaults wire in this repository's own
    substrates (CDCL / all-SAT enumeration, exact simplex,
    branch-and-prune). *)

module Q = Absolver_numeric.Rational
module Types = Absolver_sat.Types
module All_sat = Absolver_sat.All_sat
module Expr = Absolver_nlp.Expr
module Linexpr = Absolver_lp.Linexpr

type linear_verdict =
  | L_sat of (int * Q.t) list (** values for the structural variables *)
  | L_unsat of int list (** tags of an inconsistent subset *)
  | L_unknown of Absolver_resource.Absolver_error.t
      (** the solver gave up (budget exhausted, cancelled, internal cap) *)

type linear_session = {
  lsess_atom : Linexpr.cons -> int;
  lsess_solve :
    int_vars:int list -> fixes:Linexpr.cons list -> int array -> int -> linear_verdict;
  lsess_counters : unit -> Absolver_lp.Incremental.stats;
}
(** A stateful linear-solver session. [lsess_atom c] registers the atom
    [c] and returns its id, the same id for an equal atom.
    [lsess_solve ~int_vars ~fixes ids n] decides the conjunction of
    [fixes] (never registered: the engine's witness fixes) and the atoms
    [ids.(0 .. n-1)], in that order. [ids] is the caller's buffer, which
    it rewrites for its next query: a session must not keep it. Calls
    may reuse solver state from earlier ones (a warm-started tableau),
    but each must decide exactly the constraints it is given.
    [lsess_counters] returns the work done since its previous call (or
    since the session was acquired) as one record; the engine adds it to
    the run's counter store ([lp.pivots], [lp.inc.*]; see
    {!Engine.counters}) after every solve. *)

type linear_solver = {
  ls_session : budget:Absolver_resource.Budget.t -> warm:bool -> linear_session;
      (** Acquire a session governed by [budget]; the engine acquires one
          per enumeration and routes every LP query through it. With
          [warm = false] each query must be decided on a fresh tableau
          that shares no state with any earlier query, which is the
          paper's restart per model ([use_incremental = false]). With
          [warm = true] queries warm-start, and the session may resume
          one that outlives the enumeration ({!persistent_simplex}). *)
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
  ns_solve :
    budget:Absolver_resource.Budget.t ->
    telemetry:Absolver_telemetry.Telemetry.t ->
    nvars:int ->
    box:Absolver_nlp.Box.t ->
    Expr.rel list ->
    nonlinear_verdict * Absolver_nlp.Branch_prune.stats;
}
(** [telemetry] is the engine's handle with the [nonlinear_check] span
    open; an oracle may record its own spans and histograms into it
    (e.g. [nlp.bp_depth]). A solver free of instrumentation just ignores
    it.

    The returned {!Absolver_nlp.Branch_prune.stats} carries per-solve
    search counters for the engine's run statistics; a solver
    without such instrumentation returns
    {!Absolver_nlp.Branch_prune.empty_stats}. *)

type t = {
  boolean : All_sat.strategy;
      (** [Incremental] keeps a single solver instance and blocks models
          with added clauses (LSAT [2]); [Restarting] rebuilds the solver
          per model, as the paper describes for black-box solvers like
          zChaff. *)
  linear : linear_solver;
  nonlinear : nonlinear_solver list;  (** tried in order *)
}

val simplex_solver : linear_solver
(** COIN stand-in: exact rational simplex with branch-and-bound for
    integer variables. Every acquisition is a new
    {!Absolver_lp.Incremental} session. *)

val persistent_simplex : unit -> linear_solver * (unit -> unit)
(** A simplex whose warm session outlives any single enumeration: every
    warm [ls_session] acquisition re-governs and returns the {e same}
    underlying {!Absolver_lp.Incremental} session, so consecutive solve
    requests reuse slack rows, bounds and the tableau basis across
    requests — the solve server keeps one per client connection.  A
    [warm = false] acquisition is a new session, as in
    {!simplex_solver}.  Session counters are delta'd per read, so
    per-run statistics stay attributable.  The second component tears the
    warm session down (the server calls it on client disconnect; a later
    acquisition starts fresh).  Each call builds an independent session —
    state never leaks between two [persistent_simplex] values. *)

val branch_prune_solver :
  ?config:Absolver_nlp.Branch_prune.config -> unit -> nonlinear_solver
(** IPOPT stand-in: interval branch-and-prune
    ({!Absolver_nlp.Branch_prune.solve}). *)

val default : t
(** LSAT + simplex + branch-and-prune (the combination used for Tables 1
    and 3 of the paper, modulo substitutions). *)

val with_chaff : t
(** zChaff-style restarting Boolean enumeration (Table 1's combination). *)
