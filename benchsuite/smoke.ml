(* [suite.exe smoke]: every workload at a tiny size (steering left out),
   untraced and traced, checking that
   - every metric BENCHMARK.json names is reported for every workload,
   - every answer checks out, and a flipped expectation is caught,
   - every trace loads with no span whose parent is missing. *)

module T = Absolver_tracetool.Tracetool

let main ~run_workload =
  let spec = Report.load_spec () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let t0 = Measure.now () in
          let r =
            run_workload ~size:Gen.Tiny ~setups:1 ~setup_seconds:0.0 ~workload ~seed:1
              ~seconds:0.3 ~trace
          in
          let wanted = if trace then spec.Report.per_layer else spec.Report.end_to_end in
          List.iter
            (problem "%s: %s not reported" workload)
            (Report.missing r.Measure.metrics wanted);
          let t = r.Measure.tally in
          List.iter (fun (n, why) -> problem "%s: %s wrong: %s" workload n why) t.Measure.wrong;
          List.iter
            (fun (n, why) -> problem "%s: %s undecided: %s" workload n why)
            t.Measure.undecided;
          List.iter
            (fun path ->
              match T.load path with
              | Error e -> problem "%s: trace %s: %s" workload path e
              | Ok tr ->
                if T.unresolved tr <> [] then
                  problem "%s: trace %s has unresolved spans" workload path)
            r.Measure.traces;
          Printf.printf "%-10s %-8s %d answers checked, %d metrics, %.2fs\n%!" workload
            (if trace then "traced" else "untraced")
            t.Measure.attempted (List.length r.Measure.metrics) (Measure.now () -. t0))
        [ false; true ])
    spec.Report.workloads;
  (* A checker that accepts a flipped expectation would accept anything. *)
  let flipped (inst : Gen.instance) expect = { inst with Gen.expect = Some expect } in
  let unsat = List.nth Gen.table1_small 1 and sat = List.nth Gen.table1_small 0 in
  let s = Verify.subject (flipped unsat Gen.Sat) in
  (match Verify.check_result s (fst (Absolver_core.Engine.solve s.Verify.problem)) with
  | Verify.Wrong _ -> ()
  | Verify.Decided | Verify.Undecided _ ->
    problem "checker accepted %s against a flipped verdict" unsat.Gen.name);
  let reply = Result.get_ok (Absolver_server.Sjson.parse {|{"status":"ok","verdict":"sat"}|}) in
  (match Verify.check_solve_reply (Verify.subject (flipped sat Gen.Unsat)) ~models:None reply with
  | Verify.Wrong _ -> ()
  | Verify.Decided | Verify.Undecided _ ->
    problem "checker accepted a reply for %s against a flipped verdict" sat.Gen.name);
  match List.rev !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
    List.iter (Printf.printf "smoke: %s\n") ps;
    exit 1
