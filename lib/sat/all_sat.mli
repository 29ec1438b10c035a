(** Model enumeration — the reproduction's LSAT [2].

    The paper uses LSAT to obtain {e all} satisfying Boolean assignments in
    one call, which matters for consistency-based diagnosis and for
    ABSOLVER's control loop (each Boolean model spawns one arithmetic
    subproblem). An enumeration is a handle {!t}: {!next} finds a model,
    {!block} excludes it (or any other set of assignments), and so on until
    [Unsat]. The handle hides one of two strategies:

    - [Incremental] keeps one CDCL instance alive and adds each blocking
      clause to it (the LSAT behaviour);
    - [Restarting] rebuilds the solver from the clauses and every blocking
      clause so far before each search, reproducing the paper's remark
      that with a non-LSAT black-box solver all models can still be
      computed "at the expense of the time required for restarting the
      entire solving process externally" (Sec. 4). The ablation bench
      quantifies that expense.

    Both search the same clause set after the same blocks, so they find
    the same set of models, possibly in a different order. *)

type strategy = Incremental | Restarting

type t

val load : num_vars:int -> Types.lit list list -> Cdcl.t
(** A fresh solver over variables [0 .. num_vars - 1] (more if the
    clauses mention them) with [clauses] bulk-loaded ({!Cdcl.load}). *)

val create : phase:bool -> strategy -> Cdcl.t -> t
(** An enumeration of the models of the clauses loaded into [solver],
    which it takes over. [phase] is the solver's initial polarity
    ({!Cdcl.set_default_phase}). [Restarting] keeps {!Cdcl.clauses} of
    the solver as it is now and rebuilds from them. *)

val next :
  ?max_conflicts:int -> ?budget:Absolver_resource.Budget.t -> t -> Types.outcome
(** Search for a model of the clauses and of every clause blocked so far.
    After [Sat] the model is readable through {!model} until the next
    call; [Unknown] means [max_conflicts] or [budget] ran out, with the
    budget's reason left sticky as in {!Cdcl.solve}. *)

val model : t -> bool array
(** The model the last [Sat] answer found. The array is the handle's
    own, refilled by each call: it stays valid until the next {!next},
    and a caller that keeps a model copies it. *)

val block : t -> Types.lit list -> unit
(** Require every later model to satisfy the clause. The clause is
    queued and added at the start of the next {!next}, so adding it
    counts as that search's work; [Restarting] also keeps it for every
    later rebuild. With [Incremental], a single block of a clause the
    last model falsifies keeps the trail a restart would rebuild
    ({!Cdcl.add_blocking_clause}); several blocks are added at level 0
    ({!Cdcl.add_clause}). *)

val work : t -> Types.stats
(** The SAT solver's work in the last {!next}, including the clauses added
    since the one before; with [Restarting] that is the whole rebuilt
    solver's work. *)

val blocking : projection:Types.var list -> bool array -> Types.lit list
(** The clause that excludes [model]'s values on [projection] (ascending):
    its negation, in descending variable order. The solver watches its
    leading (highest) literals, or with trail reuse its highest ones
    left unassigned, and with phase saving consecutive models flip
    late-decided, high variables first, so the watches sit where models
    differ and survive most model-to-model deltas. Empty when
    [projection] is. *)

val enumerate :
  ?strategy:strategy ->
  ?projection:Types.var list ->
  ?limit:int ->
  ?budget:Absolver_resource.Budget.t ->
  num_vars:int ->
  Types.lit list list ->
  (bool array list, Absolver_resource.Absolver_error.t) result
(** [enumerate ~num_vars clauses] returns the list of models (arrays of
    length [num_vars] or more), with the [strategy] (default
    [Incremental]). With [projection] the models are projected onto the
    given variables, the others read [false], and duplicates w.r.t. the
    projection are suppressed (blocking clauses mention only projected
    variables). [limit] stops after that many models; [budget] bounds the
    whole enumeration and yields [Error] with the typed exhaustion
    reason. *)

val count :
  ?projection:Types.var list ->
  ?budget:Absolver_resource.Budget.t ->
  num_vars:int ->
  Types.lit list list ->
  (int, Absolver_resource.Absolver_error.t) result
