(** The watcher lists of every literal, in one structure (DESIGN.md
    Sec. 16).

    A literal's list is a flat [int array] of pairs: the arena offset of
    a watching clause, then its blocking literal. No literal has a record
    of its own: the solver holds one array of lists and one array of
    lengths, indexed by literal, and an empty list is the shared [[||]]. *)

type t = private {
  mutable lists : int array array;
      (** Literal [l]'s entry [i] is the clause [lists.(l).(2 * i)] with
          the blocker [lists.(l).(2 * i + 1)]. *)
  mutable sizes : int array;  (** The number of entries of each list. *)
}
(** Private, so that the propagation loop reads a list and updates
    blockers in place, without a call per visit; only this module adds,
    removes or reallocates entries. *)

val create : int -> t
(** [create n]: empty lists for literals [0 .. n - 1]. *)

val grow : t -> int -> unit
(** [grow w n] makes room for the lists of literals [0 .. n - 1]. *)

val push : t -> Types.Lit.t -> int -> Types.Lit.t -> unit
(** [push w l c b] appends clause [c] with blocker [b] to [l]'s list. *)

val reserve : t -> ((Types.Lit.t -> unit) -> unit) -> unit
(** [reserve w each], where [each f] calls [f l] once for every entry
    about to be pushed on [l]'s list, grows each list that needs it
    once, to exactly the length it will have. *)

val swap_remove : t -> Types.Lit.t -> int -> unit
(** Constant-time removal of an entry: overwrite it with the last one. *)

val clear : t -> unit
(** Empty every list, keeping the capacities. *)

val compact : t -> Types.Lit.t -> unit
(** Shrink a list's array when the list fills less than a quarter of it,
    returning over-grown watcher memory after a reduction sweep. *)
