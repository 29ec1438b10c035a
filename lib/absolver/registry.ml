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

type bool_solver = { bs_name : string; bs_strategy : All_sat.strategy }

type linear_verdict =
  | L_sat of (int * Q.t) list
  | L_unsat of int list
  | L_unknown of Err.t

type linear_session = {
  lsess_solve : int_vars:int list -> Linexpr.cons list -> linear_verdict;
  lsess_counters : unit -> (string * int) list;
}

type linear_solver = {
  ls_name : string;
  ls_session : budget:Budget.t -> warm:bool -> linear_session;
}

type nonlinear_verdict =
  | N_sat of float array
  | N_approx of float array
  | N_unsat
  | N_unknown

type nonlinear_solver = {
  ns_name : string;
  ns_solve :
    budget:Budget.t ->
    telemetry:Absolver_telemetry.Telemetry.t ->
    nvars:int ->
    box:Absolver_nlp.Box.t ->
    Expr.rel list ->
    nonlinear_verdict * Branch_prune.stats;
}

type t = {
  boolean : bool_solver list;
  linear : linear_solver list;
  nonlinear : nonlinear_solver list;
}

let cdcl_solver = { bs_name = "cdcl (zChaff-like)"; bs_strategy = All_sat.Restarting }
let lsat_solver = { bs_name = "lsat (all-solutions)"; bs_strategy = All_sat.Incremental }

let verdict_of_simplex = function
  | Simplex.Sat model -> L_sat model
  | Simplex.Unsat tags -> L_unsat tags
  | Simplex.Unknown e -> L_unknown e

(* A session over [s] whose counters report the work done since they
   were last read, so every reader sees only its own work. *)
let session_of s =
  let last = ref (Incremental.counters s) in
  {
    lsess_solve =
      (fun ~int_vars constraints ->
        verdict_of_simplex (Incremental.solve s ~int_vars constraints));
    lsess_counters =
      (fun () ->
        let now = Incremental.counters s in
        let delta = List.map2 (fun (k, v) (_, v0) -> (k, v - v0)) now !last in
        last := now;
        delta);
  }

let fresh_session ~budget = session_of (Incremental.create ~budget ())

let simplex_solver =
  {
    ls_name = "simplex (COIN-like)";
    ls_session = (fun ~budget ~warm:_ -> fresh_session ~budget);
  }

(* A linear solver whose warm session outlives any single enumeration:
   every warm [ls_session] acquisition returns the SAME underlying
   [Incremental] session (created lazily, re-governed by the acquiring
   enumeration's budget), so consecutive solve requests from one server
   client reuse slack rows, bounds and the tableau basis across
   requests.  A cold acquisition is a new session.  Two invariants make
   this safe:

   - counters are delta'd per read ([session_of]), so the engine's
     per-run statistics see only the work of its own enumeration, never
     the session's cumulative history;
   - the session is an unshared value: each call to
     [persistent_simplex] builds an independent one, which is what makes
     it per-client — the server creates one per connection and calls the
     returned [dispose] at disconnect, so no warm tableau ever leaks
     between independent clients. *)
let persistent_simplex () =
  let session = ref None in
  let acquire () =
    match !session with
    | Some s -> s
    | None ->
      let s = Incremental.create () in
      session := Some s;
      s
  in
  let mk ~budget ~warm =
    if warm then begin
      let s = acquire () in
      Incremental.set_budget s budget;
      session_of s
    end
    else fresh_session ~budget
  in
  let solver =
    { ls_name = "simplex (COIN-like, persistent session)"; ls_session = mk }
  in
  (solver, fun () -> session := None)

let branch_prune_solver ?(config = Branch_prune.default_config) ?(jobs = 1) () =
  {
    ns_name =
      (if jobs <= 1 then "branch-and-prune (IPOPT-like)"
       else Printf.sprintf "branch-and-prune (IPOPT-like, %d jobs)" jobs);
    ns_solve =
      (fun ~budget ~telemetry ~nvars ~box rels ->
        let verdict, stats =
          Branch_prune.solve ~config ~budget ~telemetry ~jobs ~nvars ~box rels
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
    boolean = [ lsat_solver ];
    linear = [ simplex_solver ];
    nonlinear = [ branch_prune_solver () ];
  }

let with_chaff = { default with boolean = [ cdcl_solver ] }
