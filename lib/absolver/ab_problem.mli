(** AB-problems (Sec. 2): a Boolean CNF skeleton in which designated
    Boolean variables are definitionally linked to arithmetic constraints
    over integer or real variables — the class of arithmetic-Boolean
    satisfiability problems ABSOLVER decides.

    Boolean variables are 0-based internally (DIMACS 1-based at the text
    layer). Arithmetic variables are interned strings. *)

module Q = Absolver_numeric.Rational
module Expr = Absolver_nlp.Expr
module Types = Absolver_sat.Types

type domain = Dint | Dreal

val pp_domain : Format.formatter -> domain -> unit

type def = {
  bool_var : Types.var;
      (** The Boolean variable δ-linked to the constraint (Sec. 1:
          [forall a : delta(a) <=> alpha(v_a)]). *)
  domain : domain;
  rel : Expr.rel; (** Normalized [expr op 0]; [rel.tag = bool_var]. *)
}

type t

(** {1 Construction} *)

val create : unit -> t

val ensure_bool_vars : t -> int -> unit
val add_clause : t -> Types.lit list -> unit

val intern_arith_var : t -> string -> int
(** Intern an arithmetic variable name, yielding its dense index. *)

val arith_var_name : t -> int -> string
val arith_var_index : t -> string -> int option
val num_arith_vars : t -> int

val define : t -> bool_var:Types.var -> domain:domain -> Expr.rel -> unit
(** Attach an arithmetic constraint to a Boolean variable. A variable may
    carry several definitions; it is then delta-linked to their
    {e conjunction} (paper Fig. 2 links variable 1 to both [i >= 0] and
    [j >= 0]). Exact duplicates are ignored. *)

val set_bounds : t -> int -> ?lower:Q.t -> ?upper:Q.t -> unit -> unit
(** Unconditional range for an arithmetic variable (e.g. a sensor range of
    the case study); enforced in every arithmetic subproblem. *)

(** {1 Observation} *)

val num_bool_vars : t -> int
val clauses : t -> Types.lit list list

val num_clauses : t -> int
(** [List.length (clauses t)], without building the list. *)

val defs : t -> def list
(** All definitions, grouped by variable in insertion order. *)

val find_defs : t -> Types.var -> def list
(** The definitions of one variable (conjunction), oldest first. *)

val defined_vars : t -> Types.var list
val bounds : t -> (int * (Q.t option * Q.t option)) list
val bound_rels : t -> Expr.rel list
(** The bounds as relations (tagged with {!bounds_tag}). *)

val bounds_tag : int
(** Distinguished tag carried by bound constraints in conflict sets. *)

val set_projection : t -> Types.var list -> unit
(** Declare the semantically meaningful Boolean variables. Model
    enumeration then counts and blocks models modulo the remaining
    (auxiliary, e.g. Tseitin) variables. Converters set this to the
    comparison atoms. *)

val projection : t -> Types.var list option

(** {1 Statistics (the columns of the paper's Table 1)} *)

type problem_stats = {
  n_clauses : int;
  n_bool_vars : int;
  n_linear : int;
  n_nonlinear : int;
  n_int_defs : int;
  n_real_defs : int;
}

val stats : t -> problem_stats
val pp_stats : Format.formatter -> problem_stats -> unit

(** {1 Circuit view (paper Fig. 5)} *)

val to_circuit : t -> Absolver_circuit.Circuit.t

(** {1 Validation} *)

val validate : t -> (unit, string) result
(** Structural checks: literals within range, at most one definition per
    Boolean variable, definitions reference interned variables, bounds
    reference interned variables. *)
