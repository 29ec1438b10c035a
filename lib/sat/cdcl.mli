(** A CDCL SAT solver in the zChaff/MiniSat lineage.

    This is the reproduction's stand-in for zChaff [7]: conflict-driven
    clause learning with first-UIP analysis, two-watched-literal
    propagation, VSIDS branching with phase saving, Luby restarts and
    activity-based deletion of learnt clauses.

    A {!theory} callback interface turns the solver into the DPLL(T) core
    used by the MathSAT-like baseline: the theory is notified of every
    assignment and backtrack, and is asked for consistency at every unit
    propagation fixpoint — the "tight integration" whose absence the paper
    identifies as the reason ABSOLVER trails MathSAT on the SMT-LIB
    benchmarks (Sec. 5.2). *)

type t

(** Callbacks for theory integration (DPLL(T)).

    The solver calls [t_on_assign] once per literal pushed on its trail (in
    order) and [t_on_backtrack keep] when it backtracks, where [keep] is
    the number of earlier [t_on_assign] notifications that remain valid.

    [t_check ~final] is invoked at every propagation fixpoint ([final =
    false]) and on full assignments ([final = true]). It returns [None] if
    the current assignment is theory-consistent, or [Some lits] where
    [lits] is a subset of currently-true literals that is jointly
    inconsistent (the solver learns the clause of their negations). *)
type theory = {
  t_on_assign : Types.lit -> unit;
  t_on_backtrack : int -> unit;
  t_check : final:bool -> Types.lit list option;
}

val create : ?theory:theory -> unit -> t

val new_var : t -> Types.var

val ensure_vars : t -> int -> unit
(** Make sure variables [0 .. n-1] exist. *)

val num_vars : t -> int

val num_clauses : t -> int
(** Stored non-learnt clauses of two literals or more. Every stored
    clause, learnt or not, lives in one [int array] arena owned by the
    solver: a header word (size, learnt and removed flags), then the
    literals, and for a learnt clause one more word, the index of its
    activity in a float array. Watch lists, reasons and the clause lists
    hold arena offsets. A reduction of the learnt clauses slides the
    survivors down over the removed ones and relocates every offset. *)

val add_clause : t -> Types.lit list -> unit
(** Add a clause at decision level 0 (the search backtracks there) and
    propagate it if it is a unit. Duplicate literals are merged, false
    literals dropped, and a tautology or a clause already true is not
    stored. A longer clause is stored sorted descending and watches its
    two highest literals. Adding the empty clause makes the instance
    permanently unsatisfiable. *)

val add_blocking_clause : t -> Types.lit list -> unit
(** Add a clause that the complete assignment of the last [Sat] answer
    falsifies, such as the negation of that model, and keep the part of
    the trail a restart would rebuild (trail reuse): the levels whose
    decision variables the heap, refilled as a backtrack to level 0
    would refill it, pops first, in order, below the clause's
    second-highest literal level. The solver backjumps to the last kept
    level and stores the clause as {!add_clause} would, watching its two
    highest unassigned literals; the next {!solve} without assumptions
    goes on from that trail. Otherwise (the solver is at level 0, the
    clause is not falsified, or at most one of its literals is above
    level 0) this is {!add_clause}. *)

val load : t -> Types.lit list list -> unit
(** Add a whole CNF at level 0: the bulk counterpart of {!add_clause},
    sharing its normalization. The variable arrays, the arena and the
    clause list grow once, for every clause of two literals or more; the
    unit clauses are enqueued first, then every longer clause is
    normalized and stored in order. The watch occurrences of the stored
    clauses are counted before any is watched, so each watch list grows
    once, to its final length, and gets its entries in the order
    {!add_clause} would push them. One propagation to a fixpoint and a
    {!compact} follow. That propagation is presolve work: it is not
    counted in {!stats}. *)

val probe : ?budget:Absolver_resource.Budget.t -> t -> int
(** One failed-literal probing pass at level 0, on the solver's own
    watches: for each unassigned variable in order, assume its positive
    literal, then its negative one, and propagate; a conflict fixes the
    opposite literal at level 0. Returns the number of literals so fixed.
    A probe leaves saved phases, activities, the decision heap and
    {!stats} as they were. Probing stops starting probes once they have
    propagated 65,536 literals in all. [budget] is ticked once per
    variable, between probes; its exhaustion ends the pass early, with
    the typed reason left sticky in the budget. *)

val compact : t -> unit
(** Level-0 compaction, after propagating any pending root assignment:
    drop every clause a root assignment satisfies, strip the false
    literals of the others, sort each descending and watch them again in
    their order. The arena is compacted in place, each clause sliding
    down over the words freed before it, and the clause lists are
    relocated; each watch list grows at most once. The watches are then
    those a fresh {!load} of {!clauses} would build. *)

val fixed : t -> Types.lit list
(** The root assignments (level 0), in the order they were made. *)

val clauses : t -> Types.lit list list
(** The stored problem: one unit per root assignment, in trail order,
    then every stored non-learnt clause in order, literal order
    included. *)

val solve :
  ?assumptions:Types.lit list ->
  ?max_conflicts:int ->
  ?budget:Absolver_resource.Budget.t ->
  t ->
  Types.outcome
(** Solve under optional assumptions. [max_conflicts] bounds the search
    ([Unknown] when exhausted). [budget] is polled once per
    propagate/decide iteration; on exhaustion the result is [Unknown]
    with the typed reason left sticky in the budget
    ({!Absolver_resource.Budget.tripped}) — no exception escapes. The
    model of a [Sat] answer stays readable through {!value} / {!model}
    until the next solver call. *)

val value : t -> Types.var -> Types.value
(** Value in the most recent model. *)

val level : t -> Types.var -> int
(** The decision level at which an assigned variable was assigned. *)

val model : t -> bool array
(** Snapshot of the model ([V_undef] variables default to [false]). *)

val read_model : t -> bool array -> unit
(** Write the model into the first {!num_vars} entries of the array, as
    {!model} would return it. *)

val is_unsat : t -> bool
(** The clause set itself (independent of assumptions) was proven
    unsatisfiable. *)

val stats : t -> Types.stats

val set_default_phase : t -> bool -> unit
(** The polarity a variable is first decided with: every variable's
    saved phase is reset to it, and later variables start with it. Set
    it before the first search. *)

val set_learnt_hook : t -> (Types.lit list -> unit) -> unit
(** Install a callback invoked with every learnt clause, and with the
    empty clause when unsatisfiability is established — a DRUP-style
    proof trace consumable by {!Proof.check}. *)
