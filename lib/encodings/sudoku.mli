(** Sudoku as a mixed Boolean/integer-linear AB-problem (paper Sec. 5.3).

    Two encodings are provided, mirroring the paper's situation where each
    solver received the problem in the form its input language accepts:

    - {!absolver_problem}: the "natural" mixed encoding the paper credits
      for ABSOLVER's speed. Cells are integer variables [x_rc in [1,9]];
      order-encoding atoms [x_rc >= d] are definitional Boolean variables
      (their negation is a single inequality, so the control loop never
      branches); derived cell=digit Booleans carry the classic
      exactly-one/all-different CNF, so LSAT's Boolean search does the
      combinatorics and the linear solver reconstructs the integer values
      (plus redundant row/column/box sum-45 constraints that exercise it);

    - {!baseline_problem}: the integer-arithmetic-heavy form (pairwise
      disequalities over the integer cells, clues as equalities) that
      Boolean+linear solvers of the era accepted — and crawled on, since
      all the work lands on integer feasibility (Table 3's 75-137 minute
      MathSAT times and CVC Lite's out-of-memory aborts). *)

type puzzle = int array array
(** 9x9; entries 0 (blank) or 1..9. *)

val parse : string -> (puzzle, string) result
(** 81 digit characters (0 or '.' for blanks), whitespace ignored. *)

val to_string : puzzle -> string
val pp : Format.formatter -> puzzle -> unit

val is_complete_and_valid : puzzle -> bool
val respects_clues : clues:puzzle -> puzzle -> bool

val absolver_problem : puzzle -> Absolver_core.Ab_problem.t
val baseline_problem : puzzle -> Absolver_core.Ab_problem.t

val sat_problem : puzzle -> Absolver_core.Ab_problem.t
(** The classic pure-SAT encoding (the paper's [6,12]): 729 cell=digit
    Booleans, exactly-one and all-different clauses, no arithmetic at
    all. Used by the encoding-comparison ablation that tests the paper's
    claim that the mixed encoding "can be tackled more efficiently". *)

val decode :
  Absolver_core.Ab_problem.t -> Absolver_core.Solution.t -> puzzle
(** Read the cell values out of a solution of the mixed or baseline
    encoding (via the arithmetic cell variables). *)
