(** SAT-level inprocessing on the CNF skeleton, run before CDCL search.

    Root-level unit propagation, pure-literal elimination, clause
    subsumption with self-subsuming resolution, and failed-literal
    probing, in the SatELite/MiniSat-preprocessor tradition. All
    transformations except pure-literal elimination are model-preserving
    (they keep the set of satisfying assignments identical); pure-literal
    elimination may discard models of the eliminated variables and is
    therefore gated by a [protect] predicate — the caller protects every
    variable whose exact value matters (arithmetic definition variables,
    projection/counting variables) and receives a reconstruction map for
    the rest. *)

module Types = Absolver_sat.Types

type stats = {
  mutable fixed_literals : int;
      (** Root-implied assignments (input units, propagation, probing). *)
  mutable pure_literals : int;  (** Variables eliminated as pure or free. *)
  mutable removed_clauses : int;  (** Satisfied, subsumed or pure-satisfied. *)
  mutable strengthened_literals : int;
      (** Literals dropped by self-subsuming resolution. *)
  mutable probes : int;  (** Variables probed for failed literals. *)
  mutable failed_literals : int;  (** Probes that yielded an implied unit. *)
}

type simplified = {
  clauses : Types.lit list list;
      (** The simplified CNF over the original variable numbering: one unit
          clause per fixed variable, then the surviving strengthened
          clauses. Equivalent to the input for every variable except the
          [pure] ones. *)
  fixed : (Types.var * bool) list;
      (** Root-implied assignments — true in {e every} model of the input. *)
  pure : (Types.var * bool) list;
      (** Eliminated pure/free variables with a satisfying polarity; patch
          these into any model of [clauses] to obtain a model of the
          input (see {!restore}). *)
  stats : stats;
}

type result = Unsat | Simplified of simplified

val simplify :
  ?probe_limit:int ->
  ?protect:(Types.var -> bool) ->
  ?budget:Absolver_resource.Budget.t ->
  nvars:int ->
  Types.lit list list ->
  result
(** [simplify ~nvars clauses] simplifies towards a propagation/
    subsumption/probing fixpoint. After root-level unit propagation it
    runs at most 3 rounds of subsumption, probing and pure-literal
    elimination, stopping early after a round that changes nothing.
    Within one call:
    - [probe_limit] caps the number of probed variables (default 2000);
    - all probes together scan at most about 300,000 clauses (checked
      between probes, so the last probe may overrun it);
    - subsumption is skipped in a round whose live CNF has more than
      50,000 clauses or 500,000 literals.

    [protect] exempts variables from pure-literal elimination (default:
    none). Budget exhaustion stops inprocessing early and returns the
    (equivalent) partially simplified CNF; no exception escapes this
    boundary. *)

val restore : pure:(Types.var * bool) list -> bool array -> unit
(** Patch the eliminated variables' satisfying polarities into a model of
    the simplified CNF, making it a model of the original CNF. *)
