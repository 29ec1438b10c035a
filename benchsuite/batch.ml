(* The batch workloads: nonlinear (Table 1), bmc (Table 2) and sudoku
   (Table 3). Every instance is solved with [Engine.solve] at default
   options, round after round, until the run's time is spent.

   Timings are best-of: an instance's time is its fastest solve in the
   run. The machines this runs on are shared, and other tenants slow a
   process down for seconds at a time; the fastest of several solves is
   what the code costs, and it repeats from run to run where a median
   does not. *)

module A = Absolver_core
module E = A.Engine
module Telemetry = Absolver_telemetry.Telemetry

type workload = Nonlinear | Bmc | Sudoku

let name = function Nonlinear -> "nonlinear" | Bmc -> "bmc" | Sudoku -> "sudoku"

let generate workload ~size ~seed =
  match workload with
  | Nonlinear -> Gen.nonlinear ~size ~seed
  | Bmc -> Gen.bmc ~size ~seed
  | Sudoku -> Gen.sudoku ~size ~seed

(* Input generation, then the solver's front end on every input. *)
let setup ~tel workload ~size ~seed =
  generate workload ~size ~seed
  |> List.map (fun (inst : Gen.instance) ->
         Telemetry.span tel "frontend.parse"
           ~attrs:[ ("instance", Telemetry.String inst.Gen.name) ]
           (fun () ->
             Telemetry.add tel "frontend.bytes" (Verify.input_bytes inst.Gen.input);
             Verify.subject inst))
  |> Array.of_list

type solve = { secs : float; words : float; result : E.result }

let solve ~tel (subject : Verify.subject) =
  let options = { E.default_options with E.telemetry = tel } in
  Telemetry.span tel "bench.instance"
    ~attrs:[ ("instance", Telemetry.String subject.Verify.inst.Gen.name) ]
    (fun () ->
      let t0 = Measure.now () in
      let result, st = E.solve ~registry:subject.Verify.registry ~options subject.Verify.problem in
      {
        secs = Measure.now () -. t0;
        words = st.E.alloc_minor_words +. st.E.alloc_major_words;
        result;
      })

(* Rounds until [budget] seconds are spent: the first round solves every
   instance, later ones only those whose last solve still fits in the
   time left, so cheap instances are sampled many times and a dear one
   (steering) at least once. The solves of each instance, newest first. *)
let rounds ~budget ~tel subjects =
  let samples = Array.make (Array.length subjects) [] in
  let deadline = Measure.now () +. budget in
  let fits i =
    match samples.(i) with [] -> true | s :: _ -> Measure.now () +. s.secs <= deadline
  in
  let rec go () =
    let solved = ref false in
    Array.iteri
      (fun i subject ->
        if fits i then begin
          samples.(i) <- solve ~tel subject :: samples.(i);
          solved := true
        end)
      subjects;
    if !solved then go ()
  in
  go ();
  samples

let check subjects samples =
  let tally = Measure.tally () in
  Array.iteri
    (fun i solves ->
      let subject = subjects.(i) in
      List.iter
        (fun s ->
          Measure.record tally subject.Verify.inst.Gen.name (Verify.check_result subject s.result))
        solves)
    samples;
  tally

let best solves = List.fold_left (fun a s -> Float.min a s.secs) infinity solves

let sum = Array.fold_left ( +. ) 0.0

let end_to_end ~setup_s ~tally samples =
  let bests = Array.map best samples in
  let ms = Array.to_list (Array.map (fun b -> b *. 1000.0) bests) in
  [
    ("wall_s", sum bests);
    ("p50_ms", Measure.percentile 0.50 ms);
    ("p95_ms", Measure.percentile 0.95 ms);
    ( "decided_ratio",
      Measure.ratio (float_of_int tally.Measure.decided) (float_of_int tally.Measure.attempted) );
    ( "alloc_mwords",
      sum (Array.map (fun solves -> Measure.median (List.map (fun s -> s.words) solves)) samples)
      /. 1e6 );
    ("peak_rss_mb", Measure.peak_rss_mb None);
    ("setup_s", setup_s);
  ]

let untraced workload ~size ~seed ~seconds ~setups ~setup_seconds =
  let setup_s, subjects =
    Measure.setup ~setups ~seconds:setup_seconds (fun () ->
        setup ~tel:Telemetry.disabled workload ~size ~seed)
  in
  let samples = rounds ~budget:seconds ~tel:Telemetry.disabled subjects in
  let tally = check subjects samples in
  { Measure.tally; metrics = end_to_end ~setup_s ~tally samples; traces = [] }

(* Untraced rounds for half the budget, then one traced pass over every
   instance, which the layer metrics describe. The tracing overhead is
   that pass against the instances' median untraced solves. *)
let traced workload ~size ~seed ~seconds =
  let path = Measure.out_file (Printf.sprintf "%s-seed%d.trace.jsonl" (name workload) seed) in
  let oc = open_out path in
  let tel = Telemetry.create ~trace:oc () in
  let subjects =
    Telemetry.span tel "bench.setup" (fun () -> setup ~tel workload ~size ~seed)
  in
  let base = rounds ~budget:(seconds /. 2.0) ~tel:Telemetry.disabled subjects in
  let t0 = Measure.now () in
  let pass = Array.map (fun s -> [ solve ~tel s ]) subjects in
  let pass_s = Measure.now () -. t0 in
  let tally =
    Telemetry.span tel "bench.check" (fun () ->
        check subjects (Array.mapi (fun i b -> pass.(i) @ b) base))
  in
  Telemetry.close tel;
  close_out oc;
  let spans = Layers.summarize (Layers.load path) in
  let counter c = float_of_int (Telemetry.counter tel c) in
  let layers =
    Layers.metrics ~passes:1 ~counter
      ~relax_lp_s:
        (Option.fold ~none:0.0
           ~some:(fun h -> h.Telemetry.h_sum)
           (Telemetry.histogram tel "bp.relax.lp_time"))
      ~busy_s:(Layers.total spans "bench.instance")
      ~frontend_s:(Layers.self spans "frontend")
      ~frontend_bytes:(counter "frontend.bytes") spans
  in
  let untraced_s =
    sum (Array.map (fun solves -> Measure.median (List.map (fun s -> s.secs) solves)) base)
  in
  let server_zeros =
    List.map
      (fun m -> (m, 0.0))
      [
        "server.queue_wait_p50_ms";
        "server.queue_wait_p95_ms";
        "server.request_p50_ms";
        "server.request_p95_ms";
        "server.io_p50_ms";
        "server.rejected";
      ]
  in
  let trace_metrics =
    [
      ("trace.overhead_ratio", Measure.ratio (Layers.total spans "bench.instance") untraced_s);
      ("trace.coverage_ratio", Measure.ratio (Layers.engine_self spans) pass_s);
    ]
  in
  { Measure.tally; metrics = layers @ server_zeros @ trace_metrics; traces = [ path ] }
