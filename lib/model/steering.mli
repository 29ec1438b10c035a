(** The car steering-control case study (paper Sec. 3), rebuilt.

    The original MATLAB/Simulink model is withheld by the paper's authors
    for IP reasons; this is a synthetic stand-in with the same published
    interface and conversion statistics:

    - sensors: yaw rate in [-7, 7], lateral acceleration in [-20, 20],
      four wheel speeds in [-400, 400], steering angle in [-1, 1];
    - a nonlinear single-track vehicle environment (speed-dependent yaw
      reference, lateral-acceleration coupling, slip and side-slip
      plausibility) — products and divisions of sensor signals, exactly
      the constraint class SCADE-era tools could not check (Sec. 3);
    - a stability controller with actuator-range and error-opposition
      requirements;
    - a self-test monitor cascade sized so the conversion yields the
      published 976 CNF clauses with 24 arithmetic constraints, 4 linear
      and 20 nonlinear.

    The safety property [ok] states: whenever the sensor set is plausible
    and the car is in a critical (over-/under-steering) situation, the
    commanded correction opposes the yaw error and stays within actuator
    authority. The AB-problem asserts [not ok], so SAT answers are
    counterexample scenarios — the validation use of the paper. *)

val diagram : unit -> Diagram.t
(** The tuned model (monitor cascade included). *)

val lustre_node : unit -> Lustre.node

val problem : unit -> Absolver_core.Ab_problem.t
(** The converted AB-problem ([`Find_violation] of output ["ok"]).
    Satisfies [stats.n_clauses = 976], [n_linear = 4], [n_nonlinear = 20]. *)

val target_clauses : int
(** 976, as published in Table 1. *)
