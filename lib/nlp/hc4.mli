(** HC4 over compiled tapes: the interval contractor of branch-and-prune
    and presolve ICP, and the certificates branch-and-prune checks.

    {!compile} turns each relation [e op 0] into a tape: its expression
    tree flattened into post-order nodes (the op code with its argument
    packed in one int, the second operand's index in another; the first
    operand is always the node just below) with every rational constant
    converted once, to its enclosure and to a float.
    A tape is built the first time it is used; for {!contract} that first
    build is fused with the first forward pass.

    HC4-revise runs over a tape in place: the forward pass computes each
    node's enclosure bottom-up into a {!scratch}; the backward pass
    intersects the root with the relation's feasible set ([(-inf,0]],
    [[0,0]], ...) and projects the restriction down to the variable
    leaves, narrowing the box. The same tape answers the interval
    certificates ({!certified_box}, {!certified_at}) and the tolerance
    check ({!feasible_at}).

    Each kernel does the float operations of {!Absolver_numeric.Interval}
    (resp. {!Expr.eval_float}) in the same order, so every box, verdict
    and revision count is bit for bit what the tree-walking evaluators of
    {!Expr} give: [Expr.eval_interval], [Expr.certainly_holds] and
    [Expr.holds_float] are the oracle in the tests (DESIGN.md §16).
    Removing HC4 (bisection only) is one of the ablation benchmarks. *)

type t
(** A conjunction of relations and their tapes. Tapes are built on first
    use. *)

val compile : Expr.rel list -> t
(** Sizes the tapes; each is built the first time it is used. *)

type scratch
(** Working arrays for the passes: node bounds, node requirements and a
    snapshot of the box. They grow to the longest tape and widest box
    seen; one per domain. *)

val scratch : unit -> scratch

val contract :
  ?max_rounds:int ->
  ?budget:Absolver_resource.Budget.t ->
  ?scratch:scratch ->
  t ->
  Box.t ->
  bool * int
(** Fixpoint of HC4-revise over all relations, in order, narrowing the box
    in place. A round revises every relation; rounds repeat while some
    variable's width shrank below 90% (at most [max_rounds], default 10).
    Returns [false] iff the box became empty, with the number of revise
    passes the call made. The [budget] is ticked once per round;
    exhaustion stops the fixpoint early (sound: contraction preserves all
    solutions) and never escapes — the trip reason stays sticky in the
    budget for the caller to observe. Without [scratch], a fresh one is
    used. *)

val certified_box : t -> scratch -> Box.t -> bool
(** Every relation holds at every point of the box
    ([Expr.certainly_holds] over [Box.env]). *)

val certified_at : t -> scratch -> float array -> bool
(** Every relation holds rigorously at the point: interval evaluation at
    the degenerate box ([Expr.certainly_holds] over [Box.point_env]).
    @raise Invalid_argument if a variable of a relation is nan. *)

val feasible_at : tol:float -> t -> scratch -> float array -> bool
(** Every relation holds at the point within [tol]
    ([Expr.holds_float ~tol]). *)

val enclosure : t -> scratch -> Box.t -> int -> Absolver_numeric.Interval.t
(** Relation [j]'s expression over the box: [Expr.eval_interval] over
    [Box.env], bit for bit. *)

val value_at : t -> scratch -> float array -> int -> float
(** Relation [j]'s expression at the point: [Expr.eval_float]. *)
