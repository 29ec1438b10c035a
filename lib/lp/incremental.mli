(** Warm LP sessions: every linear check of the DPLL(T) loop.

    The paper's control loop restarts the linear solver on every Boolean
    candidate model. A session instead keeps one {!Simplex.t} alive and
    lays it out the way Dutertre and de Moura's DPLL(T) simplex does:

    - each atom (a linear constraint) is {!register}ed once and named by
      its id from then on. Registration compiles the atom to the bounds
      it puts on one variable: a multi-variable form gets a slack row,
      shared by every atom over that form; an atom over one variable
      bounds the variable itself. The variable is resolved the first
      time a query names the atom, so the tableau is laid out in the
      order a one-shot query would meet the atoms;
    - each call to {!solve} is a set of bounds on those variables. Per
      variable and kind the tightest wanted bound wins (the first in
      input order among equal ones), and only the bounds that differ
      from the previous call's are loosened or tightened. Order and
      duplicates in the input do not matter;
    - every check warm-starts from the previous basis, since pivots
      preserve the solution set.

    A {!reset} before every check is the paper's restart per model.
    Verdicts match {!Simplex.solve_system}: the same constant-constraint
    screening, the same branch-and-bound ({!Simplex.decide}), the same
    typed [Unknown] on budget exhaustion. Models, cores and pivot counts
    may differ. *)

type t

val create : ?budget:Absolver_resource.Budget.t -> unit -> t
(** A fresh session. The [budget] governs every pivot for the session's
    lifetime. *)

val set_budget : t -> Absolver_resource.Budget.t -> unit
(** Swap the budget governing subsequent pivots. The warm tableau and
    its bounds survive — this is how a long-lived per-client session
    (the solve server's) is re-governed by each request's own deadline
    without losing its warm start. *)

val reset : t -> unit
(** Drop the tableau and its bounds, as if the session were new; the
    registered atoms stay valid. *)

val forget : t -> unit
(** Drop every registered atom, whose ids become invalid; the tableau
    and the forms' slack rows stay warm. *)

val register : t -> Linexpr.cons -> int
(** The id of the atom [c]. Registering an atom again (same form,
    constant, operator and tag) returns the same id, so a session grows
    with the distinct atoms it is given, not with the calls. *)

val solve :
  t ->
  ?int_vars:Linexpr.var list ->
  ?fixes:Linexpr.cons list ->
  int array ->
  int ->
  Simplex.verdict
(** [solve t ids n] decides the conjunction of [fixes] and the atoms
    [ids.(0 .. n-1)], in that order, reusing tableau state from earlier
    calls. The caller keeps [ids] and may rewrite it for the next query.
    The query is flat: the variables it bounds and mentions go into
    buffers the session owns, the bound changes are applied from them,
    and the mentioned variables are sorted only for a feasible check
    (the [Sat] model covers them), so a query allocates nothing in
    proportion to [n]; only a form's first sight after a {!reset} (its
    slack row) and the verdict do. [fixes] are
    never registered, so a long-lived session does not grow with them
    (the engine's witness fixes). A slack wanted below one bound and
    above another is [Unsat] with those two tags before anything
    changes. Library boundary: budget exhaustion rolls back
    branch-and-bound and returns [Unknown] — no exception escapes, and
    the session stays usable. *)

type stats = { solves : int; asserted : int; retracted : int; reused : int; pivots : int }
(** A session's work: calls to {!solve}; bounds set that the previous
    call lacked, bounds of the previous call dropped (a changed bound
    counts once in each) and bounds kept unchanged; and the pivots of the
    session's tableaus. The engine reports them as [lp.inc.solves],
    [lp.inc.asserted], [lp.inc.retracted], [lp.inc.reused] and
    [lp.pivots]. *)

val stats : t -> stats
(** The session's work, cumulative since {!create}. *)
