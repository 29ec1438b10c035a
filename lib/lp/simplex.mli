(** Exact general simplex for linear-arithmetic feasibility.

    This is the reproduction's stand-in for COIN [5]: a sound and complete
    feasibility oracle for conjunctions of linear (in)equalities over the
    rationals, in the style of Dutertre and de Moura's solver-for-DPLL(T):
    slack variables carry the linear forms, asserted constraints become
    bounds, and strict inequalities are handled with delta-rationals.

    Two layers use it. {!Incremental} sessions, which decide every linear
    check of ABSOLVER's control loop, define each atom's slack once and
    move its bounds with {!set_bound}, then run {!decide}. The one-shot
    {!solve_system} builds a fresh tableau per call; it is the reference
    the tests compare against, and it serves {!Conflict.minimal_core} and
    the DPLL(T) baselines. The frame interface ({!assert_bound},
    {!push}/{!pop}) serves branch-and-bound and the tightly-integrated
    MathSAT-like baseline. *)

module Q = Absolver_numeric.Rational
module DR = Absolver_numeric.Delta_rational

type t

type result = Feasible | Infeasible of int list
(** [Infeasible tags]: the referenced asserted bounds are jointly
    inconsistent (a theory conflict ready to be learned). *)

val create : ?budget:Absolver_resource.Budget.t -> unit -> t
(** An empty tableau. With a [budget], every pivot ticks it: the
    incremental operation {!check} may then raise
    {!Absolver_resource.Budget.Exhausted} — callers of the incremental
    interface own the boundary and must catch it. The one-shot
    {!solve_system} is exception-safe. *)

val set_budget : t -> Absolver_resource.Budget.t -> unit

val new_var : t -> Linexpr.var
(** A fresh structural variable. *)

val ensure_vars : t -> int -> unit
(** Make structural variables [0 .. n-1] available. *)

val define : t -> Linexpr.t -> Linexpr.var
(** [define t e] returns a variable constrained to equal the (constant-free
    part of the) linear expression [e]: either [e]'s single variable when
    [e] is of the form [1*x], or a slack variable with a tableau row.
    Repeated definitions of the same expression share the slack. *)

type bound_kind = Lower | Upper

type bound = { value : DR.t; tag : int }
(** An asserted bound and the tag of the constraint it came from. *)

val bound : t -> Linexpr.var -> bound_kind -> bound option
(** The variable's current bound of that kind. *)

val set_bound : t -> Linexpr.var -> bound_kind -> bound option -> unit
(** Replace a bound outright, looser, tighter or absent. A nonbasic
    variable left outside its bounds moves onto the violated one, as in
    {!assert_bound}; pivots are kept.
    @raise Invalid_argument if a frame is open (the trail could not undo
    the change) or if the new bound crosses the opposite one. *)

val assert_bound : t -> tag:int -> Linexpr.var -> bound_kind -> DR.t -> result
(** Tighten a bound. A [Lower] bound [c + delta] encodes [x > c]; an
    [Upper] bound [c - delta] encodes [x < c]. Immediate conflicts with the
    opposite bound are reported without modifying the state. *)

val assert_cons : t -> Linexpr.cons -> result
(** Convenience: define the constraint's expression and assert the
    corresponding bound (tagged with the constraint's tag). [Eq] asserts
    both bounds. *)

val check : t -> result
(** Run pivoting to a verdict. Sound and complete; terminates by Bland's
    rule.
    @raise Absolver_resource.Budget.Exhausted if the tableau carries a
    budget and a pivot exhausts it (the tableau is left consistent: the
    interrupted pivot has not modified it). *)

val push : t -> unit
val pop : t -> unit
(** Backtrack the most recent {!push}. Bound tightenings are undone;
    pivots are kept (they preserve the solution set). *)

type checkpoint
(** A stable name for a trail depth, for non-chronological callers that
    cannot count their own pushes (e.g. rollback after a budget trip
    mid-branch-and-bound). *)

val checkpoint : t -> checkpoint

val rollback : t -> checkpoint -> unit
(** Pop frames until the trail is back at the checkpointed depth. Bounds
    asserted since are retracted; pivots are kept (warm start). Raises
    [Invalid_argument] if the checkpoint is deeper than the current
    trail (i.e. already popped past). *)

val value : t -> Linexpr.var -> DR.t
(** Current assignment of a variable (meaningful after [check = Feasible]). *)

val concrete_model : t -> vars:Linexpr.var list -> (Linexpr.var * Q.t) list
(** Rational model obtained by substituting a suitable positive value for
    delta; valid for the current feasible assignment. *)

val num_pivots : t -> int
(** Pivots this tableau has performed since {!create}. *)

(** {1 One-shot solving} *)

type verdict =
  | Sat of (Linexpr.var * Q.t) list
  | Unsat of int list (** tags of an inconsistent subset of the input *)
  | Unknown of Absolver_resource.Absolver_error.t
      (** gave up: budget exhausted, cancellation, or the internal
          branch-and-bound node cap *)

val decide :
  t -> int_vars:Linexpr.var list -> vars:Linexpr.var list Lazy.t -> verdict
(** Run {!check} on the current bounds, then branch-and-bound until every
    variable of [int_vars] among [vars] is integral; a [Sat] model covers
    [vars]. [vars] is forced only once a check is feasible, so an
    infeasible query never builds it (an {!Incremental} session sorts its
    query's variables there). Branches are frames above the current
    depth and are all popped on return. Budget exhaustion or the
    200k-node cap rolls those frames back and returns [Unknown]. *)

val solve_system :
  ?int_vars:Linexpr.var list ->
  ?budget:Absolver_resource.Budget.t ->
  Linexpr.cons list ->
  verdict * int
(** Decide a conjunction of linear constraints; the second component is
    the number of pivots the call performed. With [int_vars], a
    branch-and-bound refinement additionally requires those variables to
    take integer values. This is a library boundary: exhaustion of the
    [budget] (or of the internal branch-and-bound node cap) returns
    [Unknown] with the typed reason — no exception escapes. *)
