(** Cross-domain presolve driver: one pass of SAT-level simplification
    (failed-literal probing inside {!Absolver_sat.Cdcl}), LP presolve
    ({!Absolver_preprocess.Lp_presolve}) and interval constraint
    propagation ({!Absolver_preprocess.Icp}) over an AB-problem before
    the engine's control loop runs.

    The SAT level has no engine of its own: presolve works on the CDCL
    solver the search will use, into which the engine has loaded the CNF
    ({!Absolver_sat.Cdcl.load} propagates its units at the root and
    compacts the clauses). Probing fixes failed literals there, and
    loading the fed-back units after the arithmetic passes compacts the
    solver once more, so that it holds only the surviving clauses.

    Information flows in both directions: Boolean root facts select the
    arithmetic constraints that hold in {e every} model, those tighten the
    exact rational bounds and the interval box, and a definition whose
    constraint becomes provably redundant (or infeasible) on the tightened
    box feeds a unit clause on its defining literal back to the Boolean
    side, where the solver propagates it at the root.

    Everything the driver derives is implied by the problem. The SAT
    level keeps the CNF's model set exactly, and a fed-back unit only
    drops valuations that no arithmetic assignment extends. Hence solve
    and all-models results are preserved exactly, and a model of
    the solver's clauses is a model of the original problem as it
    stands. *)

module Q = Absolver_numeric.Rational
module Types = Absolver_sat.Types
module Expr = Absolver_nlp.Expr
module Box = Absolver_nlp.Box

type stats = {
  mutable fixed_literals : int;
      (** Boolean variables fixed at root level, fed-back units included. *)
  mutable removed_clauses : int;  (** Net CNF shrinkage in clauses. *)
  mutable failed_literals : int;  (** Units found by probing. *)
  mutable tightened_bounds : int;
      (** Bound tightenings (LP presolve + interval contraction). *)
  mutable unit_defs : int;
      (** Unit clauses fed back from arithmetic redundancy/infeasibility of
          defined constraints. *)
  mutable revisions : int;  (** HC4 revise passes of the interval pass. *)
  mutable wall_seconds : float;
}

type t = {
  status : [ `Open | `Unsat ];
      (** [`Unsat]: presolve refuted the problem outright. *)
  box : Box.t;  (** Tightened global interval box (per arithmetic var). *)
  bound_rels : Expr.rel list;
      (** Tightened unconditional bounds as relations (tag
          {!Ab_problem.bounds_tag}); replaces
          {!Ab_problem.bound_rels} downstream. *)
  stats : stats;
}

val run :
  ?telemetry:Absolver_telemetry.Telemetry.t ->
  ?budget:Absolver_resource.Budget.t ->
  Ab_problem.t ->
  Absolver_sat.Cdcl.t ->
  t
(** [run problem solver] presolves in one pass, where [solver] holds the
    problem's CNF ({!Absolver_sat.All_sat.load}): failed-literal probing
    ({!Absolver_sat.Cdcl.probe}), LP presolve, interval propagation, then
    the arithmetic feedback, whose units are loaded into [solver] (which
    compacts it). [telemetry] (default
    disabled) records one [presolve.sat_simplify] / [presolve.lp] /
    [presolve.icp] / [presolve.feedback] span each; the counters are
    returned in [stats], which the engine reports. [budget] is threaded
    into every pass; exhaustion stops presolve early with whatever sound
    simplification was completed (never an exception — the typed reason
    stays sticky in the budget). *)

val identity : Ab_problem.t -> t
(** The no-op presolve: original bounds and box, zero stats; the solver
    keeps the CNF as loaded — exact old engine behaviour for ablation. *)

val initial_box : Ab_problem.t -> Box.t
(** The box induced by the problem's unconditional bounds alone. *)
