(** Block vocabulary of the MATLAB/Simulink-like front end.

    The subset implemented here covers the combinational blocks that the
    paper's conversion chain handles (Fig. 1's sources, arithmetic,
    comparison and logic blocks) plus the math functions of our operator
    extension. Signals are real-, integer- or Boolean-valued. *)

module Q = Absolver_numeric.Rational

type comparison = C_lt | C_le | C_gt | C_ge | C_eq

val comparison_of_string : string -> comparison option
val comparison_to_string : comparison -> string

type math_fn = M_sqrt | M_exp | M_log | M_sin | M_cos

val math_fn_to_string : math_fn -> string
val math_fn_of_string : string -> math_fn option

type t =
  | B_inport of { name : string; lo : Q.t option; hi : Q.t option; integer : bool }
      (** External input with optional signal range (sensor range). *)
  | B_const of Q.t
  | B_add (** two inputs *)
  | B_sub
  | B_mul
  | B_div
  | B_gain of Q.t (** one input, scaled *)
  | B_sum of int (** n-ary addition *)
  | B_math of math_fn
  | B_pow of int
  | B_compare of comparison * Q.t (** input ? constant; Boolean output *)
  | B_relop of comparison (** two inputs; Boolean output *)
  | B_and of int
  | B_or of int
  | B_not
  | B_outport of string (** Boolean observation point *)
  | B_delay of Q.t
      (** Unit delay (Simulink's 1/z): outputs its initial value at step 0
          and its input's previous value afterwards. Only meaningful under
          the BMC conversion ({!Convert.node_to_ab_bmc}); the
          combinational conversion rejects it. *)

val arity : t -> int
(** Number of input ports. *)

val is_boolean_output : t -> bool
val name : t -> string
(** Short block-kind name (for printing and the textual format). *)

val pp : Format.formatter -> t -> unit
