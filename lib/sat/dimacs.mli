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

(** {1 Scanning}

    Both DIMACS readers, this one and the extended format's, read the
    text in one pass: a {!cursor} steps from line to line, and a line's
    tokens are read in place by index, with no line, token or list
    strings in between. Lines are split at ['\n'] and trimmed as
    [String.trim] trims; tokens are separated by spaces and tabs. *)

type cursor = private {
  text : string;
  mutable next : int;  (** start of the line after the current one *)
  mutable line_no : int;  (** the current line's number, from 1 *)
  mutable start : int;  (** the current line is [text.[start .. stop - 1]] *)
  mutable stop : int;
}

val cursor : string -> cursor

val is_space : char -> bool
(** The characters [String.trim] removes. *)

val next_line : cursor -> bool
(** Move to the next line that is not blank; [false] at the end. *)

val skip_blanks : string -> int -> int -> int
(** [skip_blanks text i stop]: the first index from [i] that is not a
    space or a tab, or [stop]. *)

val token_end : string -> int -> int -> int
(** [token_end text i stop]: the first space or tab from [i], or [stop]. *)

val is_word : string -> int -> int -> string -> bool
(** [is_word text i j w]: [text.[i .. j - 1]] is [w]. *)

val has_prefix : string -> int -> int -> string -> bool
(** [has_prefix text i stop w]: [text.[i .. stop - 1]] begins with [w]. *)

val decimal_digits : string -> int -> int -> int
(** The value of [text.[i .. j - 1]] when it is 1 to 18 decimal digits,
    else [-1]. *)

exception Not_int

val int_token : string -> int -> int -> int
(** The token [text.[i .. j - 1]] as a decimal integer: an optional
    [-], then 1 to 18 digits.
    @raise Not_int on anything else (a [+], a base prefix, an
    underscore, a longer number). *)

val problem_line : cursor -> ((int * int) * (int * int)) option
(** The current line as ["p cnf V C"], exactly four tokens: the bounds
    of [V] and [C]. *)

val read_ints : cursor -> int:(int -> unit) -> bad:(string -> unit) -> unit
(** Read the current line's tokens in order, as clause literals: [int n]
    for an integer (0 ends a clause), [bad tok] for any other token. *)
