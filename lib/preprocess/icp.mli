(** Interval constraint propagation for presolve: one bounded HC4-style
    contraction sweep over a set of relations, tightening the global
    variable box before branch-and-prune is ever invoked (the up-front
    tightening HySIA-style interval tools perform). *)

module I = Absolver_numeric.Interval
module Box = Absolver_nlp.Box
module Expr = Absolver_nlp.Expr

val contract :
  ?max_rounds:int ->
  ?budget:Absolver_resource.Budget.t ->
  box:Box.t ->
  Expr.rel list ->
  [ `Empty | `Box of Box.t * int ] * int
(** Contract a copy of [box] with the HC4 fixpoint over [rels]. [`Empty]
    means the relations exclude every point of the box; [`Box (b, n)]
    returns the contracted box and the number of variables whose interval
    strictly narrowed. The second component counts the HC4 revise passes
    the sweep made. Budget exhaustion stops the sweep early and returns
    the partially contracted box (sound: contraction preserves solutions);
    no exception escapes. *)
