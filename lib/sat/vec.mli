(** Growable arrays, used pervasively by the solver's hot loops. *)

type 'a t = private { mutable data : 'a array; mutable size : int; dummy : 'a }
(** Private, so that a hot loop can read [size] in place instead of
    calling {!size}, an out-of-line call when libraries are compiled
    with [-opaque]. *)

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
val size : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a
val last : 'a t -> 'a
val clear : 'a t -> unit
val shrink : 'a t -> int -> unit
(** [shrink v n] keeps the first [n] elements. *)

val compact : 'a t -> unit
(** Shrink the backing array when the vector occupies less than a quarter
    of its capacity — for call sites that clear or halve a vector that
    once grew large (e.g. the learnt-clause database on reduction). *)

val iter : ('a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val exists : ('a -> bool) -> 'a t -> bool

val swap_remove : 'a t -> int -> unit
(** Constant-time removal: overwrite index with the last element. *)

val sort : ('a -> 'a -> int) -> 'a t -> unit
