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
  use_newton : bool; (** ablation switch: univariate interval Newton *)
  samples_per_node : int;
      (** random feasibility samples per box (IPOPT-style local search) *)
  root_samples : int; (** multistart samples at the root box *)
  seed : int; (** deterministic sampling seed *)
}

val default_config : config

type stats = {
  nodes : int;
  prunings : int;  (** boxes HC4 or Newton emptied *)
  max_depth : int;
  revisions : int;  (** HC4 revise passes *)
  newton_steps : int;  (** interval Newton steps *)
}
(** Per-solve counters: each {!solve} call returns its own figures,
    summed over every worker at [jobs > 1], so concurrent solves never
    conflate them. *)

val empty_stats : stats

val solve :
  ?config:config ->
  ?budget:Absolver_resource.Budget.t ->
  ?telemetry:Absolver_telemetry.Telemetry.t ->
  ?jobs:int ->
  nvars:int ->
  box:Box.t ->
  Expr.rel list ->
  outcome * stats
(** Decide feasibility of the conjunction over the box. Variables absent
    from all constraints keep their box midpoint in witness points.

    [telemetry] is threaded into the parallel frontier (per-worker forks
    under the caller's open span, so traced runs stay one connected
    tree) and records the final search depth into the [nlp.bp_depth]
    histogram at every job count.

    The [budget] is ticked once per search node (and threaded into the HC4
    and Newton contractors). Exhaustion degrades exactly like the node cap — [Approx_sat] with the
    best candidate found so far, else [Unknown] — and never escapes as an
    exception; the typed reason stays sticky in the budget
    ({!Absolver_resource.Budget.tripped}).

    [jobs] (default 1) sets the number of worker domains. [jobs <= 1]
    runs the historical sequential search (bit-for-bit identical to
    earlier releases).  [jobs > 1] runs the box worklist as a
    work-stealing frontier
    ({!Absolver_parallel.Pool.Frontier}): workers contract and split
    boxes concurrently, the root multistart sampling is spread over the
    pool in chunks, and the first rigorous certificate cancels everyone
    else through forked budgets.  Every random draw is seeded by the
    node's split path, so the explored tree is schedule-independent:
    [Sat]/[Unsat] verdicts agree at every job count (witness points and
    [Approx_sat]/[Unknown] under a tripped cap may differ, since they
    depend on which worker reports first).  [Unsat] is only reported when
    the frontier fully drained (see DESIGN.md §11). *)

val pp_outcome : Format.formatter -> outcome -> unit
