(** HC4-revise: forward-backward interval constraint propagation.

    For each constraint [e op 0], the forward phase computes interval
    enclosures bottom-up; the backward phase intersects the root with the
    relation's feasible set ([(-inf,0]], [[0,0]], ...) and projects the
    restriction down to the variable leaves, narrowing the box. A fixpoint
    loop over all constraints yields the contractor used by the
    branch-and-prune solver. Removing HC4 (bisection only) is one of the
    ablation benchmarks. *)

module I = Absolver_numeric.Interval

val revise : Box.t -> Expr.rel -> bool
(** One forward-backward pass of a single constraint; narrows [box] in
    place. Returns [false] iff the box became empty (the constraint cannot
    hold anywhere in it). *)

val contract :
  ?max_rounds:int ->
  ?budget:Absolver_resource.Budget.t ->
  Box.t ->
  Expr.rel list ->
  bool * int
(** Fixpoint of {!revise} over all constraints. Returns [false] iff the
    box became empty, with the number of {!revise} passes the call made.
    The [budget] is ticked once per fixpoint round; exhaustion stops the
    fixpoint early (sound: contraction preserves all solutions) and never
    escapes — the trip reason stays sticky in the budget for the caller
    to observe. *)
