(** Interval branch-and-prune: the nonlinear feasibility oracle.

    This plays the role IPOPT [11] plays in the paper — deciding whether
    the conjunction of nonlinear constraints selected by a Boolean
    assignment is feasible, and producing a witness point. The paper's
    choice (a local interior-point method) can only answer "here is an
    approximately feasible point"; branch-and-prune answers that {e and}
    can prove infeasibility by exhaustion, which Table 1's
    [nonlinear_unsat] row needs (see DESIGN.md §3 for the substitution
    argument).

    Verdicts:
    - [Sat p]: every constraint is rigorously certified at [p] by interval
      evaluation;
    - [Approx_sat p]: [p] satisfies every constraint within [tol]
      (IPOPT-style tolerance answer; equalities usually land here);
    - [Unsat]: the search space was exhausted — no box survived pruning;
    - [Unknown]: node budget exhausted with no candidate point. *)

type outcome =
  | Sat of float array
  | Approx_sat of float array
  | Unsat
  | Unknown

type config = {
  eps : float; (** boxes narrower than this are not split further *)
  tol : float; (** feasibility tolerance for approximate answers *)
  max_nodes : int;
  use_hc4 : bool; (** ablation switch: contraction on/off *)
  samples_per_node : int;
      (** random feasibility samples per box (IPOPT-style local search) *)
  root_samples : int; (** multistart samples at the root box *)
  seed : int; (** deterministic sampling seed *)
}

val default_config : config

type stats = {
  nodes : int;
  prunings : int;  (** boxes HC4 emptied *)
  max_depth : int;
  revisions : int;  (** HC4 revise passes *)
}
(** Per-solve counters: each {!solve} call returns its own figures, so
    concurrent solves never conflate them. *)

val empty_stats : stats

val solve :
  ?config:config ->
  ?budget:Absolver_resource.Budget.t ->
  ?telemetry:Absolver_telemetry.Telemetry.t ->
  nvars:int ->
  box:Box.t ->
  Expr.rel list ->
  outcome * stats
(** Decide feasibility of the conjunction over the box. Variables absent
    from all constraints keep their box midpoint in witness points.

    [telemetry] records the final search depth into the [nlp.bp_depth]
    histogram.

    The [budget] is ticked once per search node (and threaded into the HC4
    contractor). Exhaustion degrades exactly like the node cap — [Approx_sat] with the
    best candidate found so far, else [Unknown] — and never escapes as an
    exception; the typed reason stays sticky in the budget
    ({!Absolver_resource.Budget.tripped}). *)

val pp_outcome : Format.formatter -> outcome -> unit
