(** Cross-domain presolve driver: composes SAT-level simplification
    ({!Absolver_preprocess.Sat_simplify}), LP presolve
    ({!Absolver_preprocess.Lp_presolve}) and interval constraint
    propagation ({!Absolver_preprocess.Icp}) to a bounded fixpoint over an
    AB-problem before the engine's control loop runs.

    Information flows in both directions: Boolean root facts select the
    arithmetic constraints that hold in {e every} model, those tighten the
    exact rational bounds and the interval box, and a definition whose
    constraint becomes provably redundant (or infeasible) on the tightened
    box feeds a unit clause on its defining literal back to the Boolean
    side — which may fix further literals, and so on.

    Everything the driver derives is implied by the problem, except the
    pure-literal eliminations, which are confined to variables that carry
    no definition and are outside the enumeration projection; their
    satisfying polarities are replayed by {!restore_model}. Hence solve /
    all-models / optimize results are preserved exactly. *)

module Q = Absolver_numeric.Rational
module Types = Absolver_sat.Types
module Expr = Absolver_nlp.Expr
module Box = Absolver_nlp.Box

type stats = {
  mutable fixed_literals : int;  (** Boolean variables fixed at root level. *)
  mutable pure_literals : int;  (** Variables eliminated as pure/free. *)
  mutable removed_clauses : int;  (** Net CNF shrinkage in clauses. *)
  mutable strengthened_literals : int;
      (** Literals dropped by self-subsuming resolution. *)
  mutable failed_literals : int;  (** Units found by probing. *)
  mutable tightened_bounds : int;
      (** Bound tightenings (LP presolve + interval contraction). *)
  mutable unit_defs : int;
      (** Unit clauses fed back from arithmetic redundancy/infeasibility of
          defined constraints. *)
  mutable rounds : int;  (** Cross-domain fixpoint rounds executed. *)
  mutable revisions : int;  (** HC4 revise passes of the interval pass. *)
  mutable wall_seconds : float;
}

type t = {
  status : [ `Open | `Unsat ];
      (** [`Unsat]: presolve refuted the problem outright. *)
  clauses : Types.lit list list;
      (** Simplified CNF over the original variable numbering (unit
          clauses for fixed variables included). *)
  fixed : (Types.var * bool) list;  (** Root-implied assignments. *)
  pure : (Types.var * bool) list;
      (** Eliminated variables and the polarity {!restore_model} replays. *)
  box : Box.t;  (** Tightened global interval box (per arithmetic var). *)
  bound_rels : Expr.rel list;
      (** Tightened unconditional bounds as relations (tag
          {!Ab_problem.bounds_tag}); replaces
          {!Ab_problem.bound_rels} downstream. *)
  stats : stats;
}

val run :
  ?max_rounds:int ->
  ?probe_limit:int ->
  ?protect_also:Types.var list ->
  ?telemetry:Absolver_telemetry.Telemetry.t ->
  ?budget:Absolver_resource.Budget.t ->
  Ab_problem.t ->
  t
(** Presolve to a fixpoint bounded by [max_rounds] (default 3) cross-domain
    rounds. [protect_also] adds variables to the pure-literal protection
    set (the engine passes enumeration-projection overrides here).
    [telemetry] (default disabled) records one [presolve.round] span per
    fixpoint round with [presolve.sat_simplify] / [presolve.lp] /
    [presolve.icp] / [presolve.feedback] children; its counters are
    returned in [stats], which the engine reports. [budget] is threaded into every
    pass; exhaustion stops presolve early with whatever sound
    simplification was completed (never an exception — the typed reason
    stays sticky in the budget). *)

val identity : Ab_problem.t -> t
(** The no-op presolve: original clauses, bounds and box, zero stats —
    exact old engine behaviour for ablation. *)

val restore_model : t -> bool array -> unit
(** Patch a model of [clauses] into a model of the original problem by
    replaying the eliminated pure literals. *)

val initial_box : Ab_problem.t -> Box.t
(** The box induced by the problem's unconditional bounds alone. *)
