(** One literal's watcher list, with the clause pointers and their
    blocking literals interleaved as two parallel flat arrays inside a
    single structure (DESIGN.md Sec. 16).

    The previous representation kept two separate [Vec.t]s per literal
    that had to be mutated in lockstep; merging them halves the header
    and bookkeeping overhead, keeps the blocker — the field checked on
    every propagation visit — in a flat unboxed [int array], and makes
    the lockstep invariant structural instead of by convention.

    Parameterized over the clause type to keep this module below the
    solver in the dependency order. *)

type 'c t = private {
  mutable cl : 'c array;  (** The watching clauses, in [cl.(0 .. n - 1)]. *)
  mutable bl : Types.Lit.t array;  (** Their blocking literals. *)
  mutable n : int;
  dummy : 'c;
}
(** Private, so that the propagation loop reads the arrays and updates
    blockers in place, without a call per visit; only this module adds,
    removes or reallocates entries. *)

val create : dummy:'c -> unit -> 'c t
(** [dummy] fills unused slots so stale clause pointers do not retain
    memory. *)

val push : 'c t -> 'c -> Types.Lit.t -> unit
(** Append a watched clause with its blocking literal. *)

val swap_remove : 'c t -> int -> unit
(** Constant-time removal: overwrite index with the last entry. *)

val clear : 'c t -> unit
(** Remove every entry, keeping the capacity. *)

val remove_clause : 'c t -> 'c -> unit
(** Remove the entry whose clause is physically equal to the argument,
    if present (linear scan; used by eager detach on database
    reduction). *)

val compact : 'c t -> unit
(** Shrink the backing arrays when the list occupies less than a quarter
    of its capacity, returning over-grown watcher memory after a
    reduction sweep. *)
