(** Growable arrays, as stacks: the DPLL(T) baseline's frame and
    assignment stacks. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills unused slots, so popped elements are not retained. *)

val size : 'a t -> int
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
