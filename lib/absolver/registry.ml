module Q = Absolver_numeric.Rational
module Types = Absolver_sat.Types
module All_sat = Absolver_sat.All_sat
module Expr = Absolver_nlp.Expr
module Linexpr = Absolver_lp.Linexpr
module Simplex = Absolver_lp.Simplex
module Incremental = Absolver_lp.Incremental
module Branch_prune = Absolver_nlp.Branch_prune
module Budget = Absolver_resource.Budget
module Err = Absolver_resource.Absolver_error

type linear_verdict =
  | L_sat of (int * Q.t) list
  | L_unsat of int list
  | L_unknown of Err.t

type linear_session = {
  lsess_atom : Linexpr.cons -> int;
  lsess_solve :
    int_vars:int list -> fixes:Linexpr.cons list -> int array -> int -> linear_verdict;
  lsess_counters : unit -> Incremental.stats;
}

type linear_solver = {
  ls_session : budget:Budget.t -> warm:bool -> linear_session;
}

type nonlinear_verdict =
  | N_sat of float array
  | N_approx of float array
  | N_unsat
  | N_unknown

type nonlinear_solver = {
  ns_solve :
    budget:Budget.t ->
    telemetry:Absolver_telemetry.Telemetry.t ->
    nvars:int ->
    box:Absolver_nlp.Box.t ->
    Expr.rel list ->
    nonlinear_verdict * Branch_prune.stats;
}

type t = {
  boolean : All_sat.strategy;
  linear : linear_solver;
  nonlinear : nonlinear_solver list;
}

let verdict_of_simplex = function
  | Simplex.Sat model -> L_sat model
  | Simplex.Unsat tags -> L_unsat tags
  | Simplex.Unknown e -> L_unknown e

(* A session over [s] whose counters report the work done since they
   were last read, so every reader sees only its own work. A cold
   session decides every query on a fresh tableau. *)
let session_of ~warm s =
  let last = ref (Incremental.stats s) in
  {
    lsess_atom = Incremental.register s;
    lsess_solve =
      (fun ~int_vars ~fixes ids n ->
        if not warm then Incremental.reset s;
        verdict_of_simplex (Incremental.solve s ~int_vars ~fixes ids n));
    lsess_counters =
      (fun () ->
        let now = Incremental.stats s and l = !last in
        last := now;
        {
          Incremental.solves = now.solves - l.solves;
          asserted = now.asserted - l.asserted;
          retracted = now.retracted - l.retracted;
          reused = now.reused - l.reused;
          pivots = now.pivots - l.pivots;
        });
  }

let fresh_session ~budget ~warm = session_of ~warm (Incremental.create ~budget ())

let simplex_solver = { ls_session = fresh_session }

(* Counters are delta'd per read ([session_of]), so a run sees only its
   own work; each call builds an independent session, so no warm tableau
   leaks between the server's clients. *)
let persistent_simplex () =
  let session = ref None in
  let mk ~budget ~warm =
    if not warm then fresh_session ~budget ~warm
    else begin
      let s = match !session with Some s -> s | None -> Incremental.create () in
      session := Some s;
      Incremental.set_budget s budget;
      Incremental.forget s;
      session_of ~warm s
    end
  in
  ({ ls_session = mk }, fun () -> session := None)

let branch_prune_solver ?(config = Branch_prune.default_config) () =
  {
    ns_solve =
      (fun ~budget ~telemetry ~nvars ~box rels ->
        let verdict, stats =
          Branch_prune.solve ~config ~budget ~telemetry ~nvars ~box rels
        in
        let v =
          match verdict with
          | Branch_prune.Sat p -> N_sat p
          | Branch_prune.Approx_sat p -> N_approx p
          | Branch_prune.Unsat -> N_unsat
          | Branch_prune.Unknown -> N_unknown
        in
        (v, stats));
  }

let default =
  {
    boolean = All_sat.Incremental;
    linear = simplex_solver;
    nonlinear = [ branch_prune_solver () ];
  }

let with_chaff = { default with boolean = All_sat.Restarting }
