(** Reading and writing plain DIMACS CNF.

    The extended format of the paper (Fig. 2) lives in
    [Absolver_core.Dimacs_ext]; this module handles the Boolean core, which
    any off-the-shelf SAT solver also understands — the compatibility
    property the paper's input language is designed around. *)

type cnf = {
  num_vars : int;
  clauses : Types.lit list list;
  comments : string list; (* comment lines, without the leading "c " *)
}

val parse_string : string -> (cnf, string) result
val parse_file : string -> (cnf, string) result
val to_string : cnf -> string
