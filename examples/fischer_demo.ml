(* The SMT-LIB pipeline of paper Sec. 5.2: generate a FISCHER benchmark in
   SMT-LIB 1.2 concrete syntax, parse it back, convert it to ABSOLVER's
   input format, and decide it — for both a reachable (SAT) and an
   unreachable (UNSAT) timing property. *)

module A = Absolver_core
module F = Absolver_smtlib.Fischer
module Q = Absolver_numeric.Rational

let run ~n ~rounds ~property ~label =
  let bench = F.benchmark ~rounds ~property ~n () in
  let text = Absolver_smtlib.Ast.to_string bench in
  Printf.printf "%s: generated %s (%d bytes of SMT-LIB 1.2, declared status %s)\n"
    label bench.Absolver_smtlib.Ast.name (String.length text)
    (match bench.Absolver_smtlib.Ast.status with
    | `Sat -> "sat"
    | `Unsat -> "unsat"
    | `Unknown -> "unknown");
  match Absolver_smtlib.Parser.parse_benchmark text with
  | Error e -> failwith ("parse: " ^ e)
  | Ok parsed -> (
    match Absolver_smtlib.To_ab.convert parsed with
    | Error e -> failwith ("convert: " ^ e)
    | Ok problem ->
      let stats = A.Ab_problem.stats problem in
      Format.printf "  converted: %a@." A.Ab_problem.pp_stats stats;
      let t0 = Unix.gettimeofday () in
      let result, run_stats = A.Engine.solve problem in
      let verdict =
        match result with
        | A.Engine.R_sat sol -> (
          match A.Solution.check problem sol with
          | Ok () -> "sat (witness verified)"
          | Error e -> "sat (BROKEN witness: " ^ e ^ ")")
        | A.Engine.R_unsat -> "unsat"
        | A.Engine.R_unknown w -> "unknown (" ^ w ^ ")"
      in
      Printf.printf "  ABSOLVER: %s in %.3fs (%d Boolean models examined)\n\n"
        verdict
        (Unix.gettimeofday () -. t0)
        (A.Engine.counter run_stats "engine.bool_models");
      (match (result, bench.Absolver_smtlib.Ast.status) with
      | A.Engine.R_sat _, `Sat | A.Engine.R_unsat, `Unsat -> ()
      | _ -> failwith "verdict does not match the declared status!"))

let () =
  (* Process 1 can reach its critical section within 4 time units... *)
  run ~n:3 ~rounds:4 ~property:(F.Cs_within (Q.of_int 4)) ~label:"reachable";
  (* ...but not within 2 (it must wait strictly longer than b = 2). *)
  run ~n:3 ~rounds:4 ~property:(F.Cs_within (Q.of_int 2)) ~label:"too fast";
  (* And mutual exclusion cannot be violated (a < b). *)
  run ~n:2 ~rounds:8 ~property:F.Mutex_violation ~label:"mutex"
