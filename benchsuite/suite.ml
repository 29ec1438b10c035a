(* The benchmark suite. See README.md in this directory.

     suite.exe --workload W --seed N --seconds S --trace 0|1
                                  one run of one workload in this process;
                                  the last output line is its result object
     suite.exe run [--seed N] [--seconds S] [--repeat K] [--out FILE]
                                  every workload, each run in a fresh child
     suite.exe trace [--seed N] [--seconds S] [--out FILE]
                                  the same, traced: per-layer metrics
     suite.exe compare A.json B.json [--claim WORKLOAD:METRIC ...]
     suite.exe smoke              tiny sizes, no steering, under 10 s
     suite.exe daemon SOCKET [TRACE]
                                  the server workload's child process *)

let fail fmt = Printf.ksprintf failwith fmt

(* Options as (name, value) pairs plus positional arguments. *)
let parse_args args =
  let rec go opts pos = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      go ((String.sub k 2 (String.length k - 2), v) :: opts) pos rest
    | [ k ] when String.starts_with ~prefix:"--" k -> fail "%s needs a value" k
    | p :: rest -> go opts (p :: pos) rest
    | [] -> (List.rev opts, List.rev pos)
  in
  go [] [] args

let number_opt of_string opts k default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> (
    match of_string v with Some n -> n | None -> fail "--%s: not a number: %s" k v)

let int_opt = number_opt int_of_string_opt
let float_opt = number_opt float_of_string_opt

let run_workload ~size ~setups ~setup_seconds ~workload ~seed ~seconds ~trace =
  match (workload, trace) with
  | "server", false -> Serve.untraced ~size ~seed ~seconds ~setups ~setup_seconds
  | "server", true -> Serve.traced ~size ~seed ~seconds
  | w, _ -> (
    let b =
      match w with
      | "nonlinear" -> Batch.Nonlinear
      | "bmc" -> Batch.Bmc
      | "sudoku" -> Batch.Sudoku
      | other -> fail "unknown workload %s" other
    in
    if trace then Batch.traced b ~size ~seed ~seconds
    else Batch.untraced b ~size ~seed ~seconds ~setups ~setup_seconds)

(* Set-up runs at least three times and for at least a second per run;
   the median is reported. *)
let setups = 3
let setup_seconds = 1.0

let one_run opts =
  let spec = Report.load_spec () in
  let workload =
    match List.assoc_opt "workload" opts with Some w -> w | None -> fail "--workload missing"
  in
  if not (List.mem workload spec.Report.workloads) then fail "unknown workload %s" workload;
  let trace = int_opt opts "trace" 0 = 1 in
  let r =
    run_workload ~size:Gen.Full ~setups ~setup_seconds ~workload ~seed:(int_opt opts "seed" 1)
      ~seconds:(float_opt opts "seconds" spec.Report.run_seconds)
      ~trace
  in
  Report.print ~workload
    ~selected:(if trace then spec.Report.per_layer else spec.Report.end_to_end)
    r;
  if r.Measure.tally.Measure.wrong <> [] then exit 1

(* [run] and [trace]: each workload (K times) in a fresh child process,
   collected into one results file for [compare]. *)
let run_all ~trace opts =
  let spec = Report.load_spec () in
  let seed = int_opt opts "seed" 1 and repeat = int_opt opts "repeat" 1 in
  let seconds = float_opt opts "seconds" spec.Report.run_seconds in
  let out =
    match List.assoc_opt "out" opts with
    | Some f -> f
    | None ->
      Measure.out_file (Printf.sprintf "%s-seed%d.json" (if trace then "trace" else "run") seed)
  in
  let ok = ref true and runs = ref [] in
  List.iter
    (fun w ->
      for _ = 1 to repeat do
        let args =
          [|
            Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed;
            "--seconds"; Report.number seconds; "--trace"; (if trace then "1" else "0");
          |]
        in
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let lines = In_channel.input_lines ic in
        let status = Unix.close_process_in ic in
        List.iter print_endline lines;
        flush stdout;
        (match (status, List.rev lines) with
        | Unix.WEXITED 0, last :: _ ->
          runs := Printf.sprintf "{\"workload\":%S,\"result\":%s}" w last :: !runs
        | _ ->
          ok := false;
          Printf.printf "%s: run failed\n%!" w)
      done)
    spec.Report.workloads;
  Out_channel.with_open_bin out (fun oc ->
      Printf.fprintf oc "{\"seed\":%d,\"seconds\":%s,\"trace\":%b,\"runs\":[\n%s\n]}\n" seed
        (Report.number seconds) trace
        (String.concat ",\n" (List.rev !runs)));
  Printf.printf "wrote %s\n" out;
  if not !ok then exit 1

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "daemon" :: socket :: rest -> Serve.daemon_main ~socket ~trace:(List.nth_opt rest 0)
  | "run" :: rest -> run_all ~trace:false (fst (parse_args rest))
  | "trace" :: rest -> run_all ~trace:true (fst (parse_args rest))
  | "compare" :: rest -> (
    match parse_args rest with
    | opts, [ a; b ] ->
      let claims = List.filter_map (fun (k, v) -> if k = "claim" then Some v else None) opts in
      Report.compare_main ~claims a b
    | _ -> fail "usage: suite.exe compare A.json B.json [--claim WORKLOAD:METRIC]")
  | [ "smoke" ] -> Smoke.main ~run_workload
  | args -> one_run (fst (parse_args args))
