(** Univariate interval Newton contraction.

    For an equality constraint [f(x) = 0] mentioning a single variable,
    the Newton operator [N(X) = m - f(m) / f'(X)] contracts [X] while
    preserving all roots; if [N(X)] lands strictly inside [X] it also
    proves existence of a root. Used as an optional extra contractor in
    {!Branch_prune} (ablation: [use_newton]). *)

module I = Absolver_numeric.Interval

val step : Expr.t -> var:int -> I.t -> I.t
(** One Newton contraction step of [f = 0] on the interval; returns a
    (possibly empty) subinterval still containing all roots. *)

val contract :
  ?max_steps:int ->
  ?budget:Absolver_resource.Budget.t ->
  Expr.t ->
  var:int ->
  I.t ->
  I.t * int
(** Iterate {!step} until no further progress; returns the contracted
    interval and the number of steps taken. The [budget] is ticked once
    per step; exhaustion returns the input interval unchanged (sound: every
    Newton step preserves all roots) and never escapes. *)

val proves_root : Expr.t -> var:int -> I.t -> bool
(** True when one Newton step maps the interval strictly into its own
    interior — a rigorous existence certificate for a root. *)
