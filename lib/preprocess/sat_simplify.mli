(** SAT-level inprocessing on the CNF skeleton, run before CDCL search.

    Root-level unit propagation and failed-literal probing. Every
    transformation is model-preserving: the simplified CNF has exactly the
    satisfying assignments of the input, so a model of it needs no
    reconstruction. *)

module Types = Absolver_sat.Types

type stats = {
  mutable fixed_literals : int;
      (** Root-implied assignments (input units, propagation, probing). *)
  mutable removed_clauses : int;  (** Satisfied or tautological. *)
  mutable probes : int;  (** Variables probed for failed literals. *)
  mutable failed_literals : int;  (** Probes that yielded an implied unit. *)
}

type simplified = {
  clauses : Types.lit list list;
      (** The simplified CNF over the original variable numbering: one unit
          clause per fixed variable, then the surviving clauses with their
          false literals removed. It has exactly the models of the input. *)
  fixed : (Types.var * bool) list;
      (** Root-implied assignments — true in {e every} model of the input. *)
  stats : stats;
}

type result = Unsat | Simplified of simplified

val simplify :
  ?budget:Absolver_resource.Budget.t ->
  nvars:int ->
  Types.lit list list ->
  result
(** [simplify ~nvars clauses] simplifies in one pass: root-level unit
    propagation, then one probing pass, which probes at most 2000
    variables and scans at most about 300,000 clauses in all (checked
    between probes, so the last probe may overrun it).

    Budget exhaustion stops inprocessing early and returns the
    (equivalent) partially simplified CNF; no exception escapes this
    boundary. *)
