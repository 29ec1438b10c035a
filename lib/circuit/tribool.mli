(** The paper's 3-valued semantics 𝔹 ∪ {?} (Sec. 2): the output pin of the
    circuit carries [tt], [ff], or [?] while subproblems are undecided. *)

type t = True | False | Unknown

val of_bool : bool -> t
val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val and_list : t list -> t
val or_list : t list -> t
val xor : t -> t -> t
val iff : t -> t -> t
val implies : t -> t -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
