(** Cross-domain presolve driver: one pass of SAT-level simplification
    ({!Absolver_preprocess.Sat_simplify}), LP presolve
    ({!Absolver_preprocess.Lp_presolve}) and interval constraint
    propagation ({!Absolver_preprocess.Icp}) over an AB-problem before
    the engine's control loop runs.

    Information flows in both directions: Boolean root facts select the
    arithmetic constraints that hold in {e every} model, those tighten the
    exact rational bounds and the interval box, and a definition whose
    constraint becomes provably redundant (or infeasible) on the tightened
    box feeds a unit clause on its defining literal back to the Boolean
    side. The pass ends there: CDCL propagates the fed-back units.

    Everything the driver derives is implied by the problem. The SAT
    passes keep the CNF's model set exactly, and a fed-back unit only
    drops valuations that no arithmetic assignment extends. Hence solve /
    all-models / optimize results are preserved exactly, and a model of
    [clauses] is a model of the original problem as it stands. *)

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
  clauses : Types.lit list list;
      (** Simplified CNF over the original variable numbering (unit
          clauses for fixed variables included). *)
  fixed : (Types.var * bool) list;
      (** Root-implied assignments: those of the SAT pass and the
          fed-back units. *)
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
  t
(** Presolve in one pass: SAT simplification, LP presolve, interval
    propagation, then the arithmetic feedback. [telemetry] (default
    disabled) records one [presolve.sat_simplify] / [presolve.lp] /
    [presolve.icp] / [presolve.feedback] span each; the counters are
    returned in [stats], which the engine reports. [budget] is threaded
    into every pass; exhaustion stops presolve early with whatever sound
    simplification was completed (never an exception — the typed reason
    stays sticky in the budget). *)

val identity : Ab_problem.t -> t
(** The no-op presolve: original clauses, bounds and box, zero stats —
    exact old engine behaviour for ablation. *)

val initial_box : Ab_problem.t -> Box.t
(** The box induced by the problem's unconditional bounds alone. *)
