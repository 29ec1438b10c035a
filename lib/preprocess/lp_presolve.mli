(** LP presolve over exact rational bounds, in the classic
    Brearley/Mitra/Williams style: singleton rows become variable bounds,
    activity-based bound propagation tightens bounds across rows, and rows
    whose activity range proves them always-true (redundant) or
    never-true (infeasible) are detected and reported.

    A row is a {!Absolver_lp.Linexpr.cons} [expr op 0]; bounds are kept as
    optional rationals ([None] = unbounded). All derived bounds are sound
    relaxations: strict inequalities on real variables are recorded as
    their non-strict closure, integer variables round to the nearest
    implied integer. *)

module Q = Absolver_numeric.Rational
module Linexpr = Absolver_lp.Linexpr

type bounds = { lo : Q.t option array; hi : Q.t option array }

val create : int -> bounds
val copy : bounds -> bounds

type row_status =
  | Redundant  (** holds for every point within the bounds *)
  | Infeasible  (** holds for no point within the bounds *)
  | Open

val status : bounds -> Linexpr.cons -> row_status
(** Classify one row against the bounds via its minimum/maximum activity. *)

type outcome =
  | Infeasible_rows of int list
      (** Tags of rows proven unsatisfiable together with the bounds. *)
  | Presolved of { tightened : int; kept : Linexpr.cons list; dropped : int }
      (** Bounds were tightened in place [tightened] times; [kept] are the
          surviving (non-redundant) rows, [dropped] counts redundant ones. *)

val presolve :
  ?is_int:(int -> bool) ->
  ?budget:Absolver_resource.Budget.t ->
  bounds ->
  Linexpr.cons list ->
  outcome
(** Propagate to a bounded fixpoint (at most 4 rounds), mutating [bounds]
    in place. [is_int] marks integer variables whose derived bounds are
    rounded inward. Budget exhaustion stops propagation early — bounds
    derived so far are sound relaxations — and never escapes. *)
