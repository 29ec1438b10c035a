(* The solver's front ends, and the checks every answer goes through
   after the timed region. A check never trusts the code path that
   produced the answer: models are re-evaluated against the problem,
   Sudoku grids against the rules and the clues, linear refutations
   against the MathSAT-like DPLL(T) baseline, nonlinear refutations
   against an engine run with presolve, incremental LP and the
   branch-and-prune relaxation switched off. *)

module A = Absolver_core
module E = A.Engine
module B = Absolver_baselines
module Q = Absolver_numeric.Rational
module S = Absolver_encodings.Sudoku
module Sjson = Absolver_server.Sjson

type outcome = Decided | Undecided of string | Wrong of string

type subject = {
  inst : Gen.instance;
  problem : A.Ab_problem.t;
  registry : A.Registry.t;
  reference : Gen.verdict option Lazy.t;  (** the reference solver's verdict *)
}

let input_bytes = function
  | Gen.Dimacs t | Gen.Smt1 t | Gen.Puzzle t -> String.length t
  | Gen.Steering_model -> 0

let parse = function
  | Gen.Dimacs t -> A.Dimacs_ext.parse_string t
  | Gen.Smt1 t ->
    Result.bind (Absolver_smtlib.Parser.parse_benchmark t) Absolver_smtlib.To_ab.convert
  | Gen.Puzzle t -> Result.map S.absolver_problem (S.parse t)
  | Gen.Steering_model -> Ok (Absolver_model.Steering.problem ())

let plain_options =
  {
    E.default_options with
    E.use_presolve = false;
    use_incremental = false;
    use_bp_relaxation = false;
  }

let verdict_of_engine = function
  | E.R_sat _ -> Some Gen.Sat
  | E.R_unsat -> Some Gen.Unsat
  | E.R_unknown _ -> None

let reference_verdict problem registry =
  if B.Common.nonlinear_defs problem > 0 then
    verdict_of_engine (fst (E.solve ~registry ~options:plain_options problem))
  else
    match B.Mathsat_like.solve problem with
    | B.Common.B_sat _ -> Some Gen.Sat
    | B.Common.B_unsat -> Some Gen.Unsat
    | B.Common.B_rejected _ | B.Common.B_out_of_memory | B.Common.B_unknown _ -> None

let subject (inst : Gen.instance) =
  match parse inst.Gen.input with
  | Error e -> failwith (inst.Gen.name ^ ": front end rejected the input: " ^ e)
  | Ok problem ->
    let registry =
      match inst.Gen.input with
      | Gen.Steering_model -> Cases.steering_registry
      | Gen.Dimacs _ | Gen.Smt1 _ | Gen.Puzzle _ -> A.Registry.default
    in
    { inst; problem; registry; reference = lazy (reference_verdict problem registry) }

let check_model subject sol =
  match A.Solution.check subject.problem sol with
  | Error e -> Wrong ("model rejected: " ^ e)
  | Ok () -> (
    match subject.inst.Gen.clues with
    | None -> Decided
    | Some clues ->
      let grid = S.decode subject.problem sol in
      if S.is_complete_and_valid grid && S.respects_clues ~clues grid then Decided
      else Wrong "invalid Sudoku grid")

let check_unsat subject =
  match subject.inst.Gen.expect with
  | Some Gen.Sat -> Wrong "unsat, but the instance is satisfiable by construction"
  | Some Gen.Unsat | None -> (
    match Lazy.force subject.reference with
    | Some Gen.Unsat -> Decided
    | Some Gen.Sat -> Wrong "unsat, but the reference solver finds a model"
    | None -> Wrong "unsat, and the reference solver cannot confirm it")

let check_sat subject sol =
  match subject.inst.Gen.expect with
  | Some Gen.Unsat -> Wrong "sat, but the instance is unsatisfiable by construction"
  | Some Gen.Sat | None -> check_model subject sol

let check_result subject = function
  | E.R_sat sol -> check_sat subject sol
  | E.R_unsat -> check_unsat subject
  | E.R_unknown why -> Undecided why

(* ------------------------------------------------------------------ *)
(* Server replies.                                                     *)

let rational s =
  match String.index_opt s '/' with
  | None -> Q.of_decimal_string s
  | Some i ->
    Q.div
      (Q.of_decimal_string (String.sub s 0 i))
      (Q.of_decimal_string (String.sub s (i + 1) (String.length s - i - 1)))

(* Rebuild a solution from the server's one-line model rendering
   ("b:0110 x=3/4 y=~0.5 z=_"). The bit string lists every Boolean
   variable only when the problem declares no projection, which holds
   for the extended-DIMACS texts the mix sends as single solves. *)
let solution_of_model problem model =
  match String.split_on_char ' ' model with
  | bits :: values
    when String.starts_with ~prefix:"b:" bits
         && String.length bits - 2 = A.Ab_problem.num_bool_vars problem ->
    let bools = Array.init (String.length bits - 2) (fun i -> bits.[i + 2] = '1') in
    let arith = Array.make (A.Ab_problem.num_arith_vars problem) None in
    List.iter
      (fun kv ->
        match String.index_opt kv '=' with
        | None -> ()
        | Some i -> (
          let name = String.sub kv 0 i and v = String.sub kv (i + 1) (String.length kv - i - 1) in
          match A.Ab_problem.arith_var_index problem name with
          | None -> ()
          | Some idx ->
            arith.(idx) <-
              (if v = "_" then None
               else if v.[0] = '~' then
                 Some (A.Solution.Approx (float_of_string (String.sub v 1 (String.length v - 1))))
               else Some (A.Solution.Exact (rational v)))))
      values;
    Some (A.Solution.make ~bools ~arith ~certified:false)
  | _ -> None

let str field reply = Option.bind (Sjson.member field reply) Sjson.get_string

(* A single-solve or enumeration reply. [models] is the enumeration
   limit the request carried. *)
let check_solve_reply subject ~models reply =
  match (str "status" reply, models) with
  | Some "ok", None -> (
    match str "verdict" reply with
    | Some "sat" -> (
      match subject.inst.Gen.expect with
      | Some Gen.Unsat -> Wrong "sat, but the instance is unsatisfiable by construction"
      | Some Gen.Sat | None -> (
        match Option.bind (str "model" reply) (solution_of_model subject.problem) with
        | Some sol -> check_model subject sol
        | None -> (
          match Lazy.force subject.reference with
          | Some Gen.Unsat -> Wrong "sat, but the reference solver refutes it"
          | Some Gen.Sat | None -> Decided)))
    | Some "unsat" -> check_unsat subject
    | Some other -> Undecided other
    | None -> Wrong "reply without a verdict")
  | Some "ok", Some limit -> (
    match Option.bind (Sjson.member "count" reply) Sjson.get_int with
    | None -> Wrong "enumeration reply without a count"
    | Some count -> (
      let registry = subject.registry in
      match E.all_models ~registry ~options:plain_options ~limit subject.problem with
      | Ok (ms, _) when List.length ms = count -> Decided
      | Ok (ms, _) ->
        Wrong (Printf.sprintf "%d models, the reference enumerates %d" count (List.length ms))
      | Error e -> Wrong ("reference enumeration failed: " ^ e)))
  | Some status, _ -> Undecided status
  | None, _ -> Wrong "reply without a status"

(* An SMT-LIB 2 session must answer exactly as an in-process replay on a
   fresh session with the plain engine. *)
let check_script_reply script reply =
  match str "status" reply with
  | Some "ok" -> (
    let replies =
      match Sjson.member "replies" reply with
      | Some (Sjson.Arr items) -> List.filter_map Sjson.get_string items
      | _ -> []
    in
    let expected, _ =
      Absolver_smtlib.Smt2.run_string
        (Absolver_smtlib.Smt2.create ())
        ~check:(Absolver_smtlib.Smt2.engine_check ~options:plain_options ())
        script
    in
    if replies <> expected then
      Wrong
        (Printf.sprintf "session answered [%s], the replay [%s]"
           (String.concat "; " replies) (String.concat "; " expected))
    else if
      List.exists (fun r -> r = "unknown" || String.starts_with ~prefix:"(error" r) replies
    then
      Undecided "session left a check undecided"
    else Decided)
  | Some status -> Undecided status
  | None -> Wrong "reply without a status"
