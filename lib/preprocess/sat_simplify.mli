(** SAT-level inprocessing on the CNF skeleton, run before CDCL search.

    Root-level unit propagation, clause subsumption with self-subsuming
    resolution, and failed-literal probing, in the SatELite/MiniSat-
    preprocessor tradition. Every transformation is model-preserving: the
    simplified CNF has exactly the satisfying assignments of the input,
    so a model of it needs no reconstruction. *)

module Types = Absolver_sat.Types

type stats = {
  mutable fixed_literals : int;
      (** Root-implied assignments (input units, propagation, probing). *)
  mutable removed_clauses : int;  (** Satisfied, tautological or subsumed. *)
  mutable strengthened_literals : int;
      (** Literals dropped by self-subsuming resolution. *)
  mutable probes : int;  (** Variables probed for failed literals. *)
  mutable failed_literals : int;  (** Probes that yielded an implied unit. *)
}

type simplified = {
  clauses : Types.lit list list;
      (** The simplified CNF over the original variable numbering: one unit
          clause per fixed variable, then the surviving strengthened
          clauses. It has exactly the models of the input. *)
  fixed : (Types.var * bool) list;
      (** Root-implied assignments — true in {e every} model of the input. *)
  stats : stats;
}

type result = Unsat | Simplified of simplified

val simplify :
  ?probe_limit:int ->
  ?budget:Absolver_resource.Budget.t ->
  nvars:int ->
  Types.lit list list ->
  result
(** [simplify ~nvars clauses] simplifies in one pass: root-level unit
    propagation, then one subsumption pass (every live clause is a
    subsumer once, shortest first), then one probing pass.
    Within one call:
    - [probe_limit] caps the number of probed variables (default 2000);
    - all probes together scan at most about 300,000 clauses (checked
      between probes, so the last probe may overrun it);
    - subsumption is skipped when the live CNF has more than 50,000
      clauses or 500,000 literals.

    Budget exhaustion stops inprocessing early and returns the
    (equivalent) partially simplified CNF; no exception escapes this
    boundary. *)
