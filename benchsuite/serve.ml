(* The server workload: the solve daemon in a child process on a Unix
   socket, driven by two closed-loop client connections (a client sends
   its next request when the previous reply is in). Two clients is the
   core count of the machine the bounds were set on; the daemon runs its
   default configuration. *)

module Server = Absolver_server.Server
module Sjson = Absolver_server.Sjson
module Telemetry = Absolver_telemetry.Telemetry
module Prometheus = Absolver_telemetry.Prometheus
module T = Absolver_tracetool.Tracetool

let clients = 2

(* [suite.exe daemon SOCKET [TRACE]]: the child process. *)
let daemon_main ~socket ~trace =
  let oc = Option.map open_out trace in
  let srv = Server.create ~config:{ Server.default_config with Server.trace = oc } () in
  let stop _ = Server.request_stop srv in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  let code =
    match Server.serve_socket srv ~path:socket with
    | Ok () -> 0
    | Error e ->
      prerr_endline ("daemon: " ^ e);
      1
  in
  Server.shutdown srv;
  Option.iter close_out oc;
  exit code

type daemon = { pid : int; socket : string }

let live = ref []

(* A daemon left behind by an exception is stopped at exit. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Ok fd
  | exception (Unix.Unix_error _ as e) ->
    Unix.close fd;
    Error e

let start_daemon ~trace =
  let socket = Measure.out_file (Printf.sprintf "daemon-%d.sock" (Unix.getpid ())) in
  let args = [ Sys.executable_name; "daemon"; socket ] @ Option.to_list trace in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stderr
      Unix.stderr
  in
  live := pid :: !live;
  let deadline = Measure.now () +. 30.0 in
  let rec wait () =
    match connect socket with
    | Ok fd -> Unix.close fd
    | Error e ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "daemon exited during start-up");
      if Measure.now () > deadline then raise e;
      Unix.sleepf 0.005;
      wait ()
  in
  wait ();
  { pid; socket }

(* Stop the daemon and wait for it; returns its peak RSS. *)
let stop_daemon d =
  let rss = Measure.peak_rss_mb (Some d.pid) in
  Unix.kill d.pid Sys.sigterm;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun p -> p <> d.pid) !live;
  rss

type conn = { ic : in_channel; oc : out_channel }

let open_conn socket =
  match connect socket with
  | Ok fd -> { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | Error e -> raise e

let call c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let close_conn c = close_out_noerr c.oc

let request_line id = function
  | Gen.Solve { inst; models } ->
    let format, text =
      match inst.Gen.input with
      | Gen.Dimacs t -> ("dimacs", t)
      | Gen.Smt1 t -> ("smt1", t)
      | Gen.Puzzle _ | Gen.Steering_model -> invalid_arg "request_line: not a text format"
    in
    Sjson.to_string
      (Sjson.Obj
         ([
            ("id", Sjson.Num (float_of_int id));
            ("op", Sjson.Str "solve");
            ("format", Sjson.Str format);
            ("problem", Sjson.Str text);
          ]
         @
         match models with
         | Some limit ->
           [ ("all_models", Sjson.Bool true); ("limit", Sjson.Num (float_of_int limit)) ]
         | None -> []))
  | Gen.Script { script; _ } ->
    Sjson.to_string
      (Sjson.Obj
         [
           ("id", Sjson.Num (float_of_int id));
           ("op", Sjson.Str "smt2");
           ("script", Sjson.Str script);
         ])

(* The daemon's aggregate: its Prometheus samples by name, and the
   admission-control rejections from the stats op. *)
type scrape = { samples : (string, float) Hashtbl.t; rejected : float }

let scrape socket =
  let c = open_conn socket in
  let field reply path =
    match Sjson.parse reply with
    | Ok j -> List.fold_left (fun j k -> Option.bind j (Sjson.member k)) (Some j) path
    | Error _ -> None
  in
  let metrics = call c {|{"id":0,"op":"metrics"}|} in
  let stats = call c {|{"id":0,"op":"stats"}|} in
  close_conn c;
  let samples = Hashtbl.create 256 in
  (match Option.bind (field metrics [ "metrics" ]) Sjson.get_string with
  | None -> failwith "daemon: metrics reply without metrics"
  | Some text ->
    List.iter
      (fun line ->
        if line <> "" && line.[0] <> '#' then
          match String.rindex_opt line ' ' with
          | Some i -> (
            match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
            | Some v -> Hashtbl.replace samples (String.sub line 0 i) v
            | None -> ())
          | None -> ())
      (String.split_on_char '\n' text));
  let rejected =
    match field stats [ "stats"; "rejected" ] with Some (Sjson.Num f) -> f | _ -> 0.0
  in
  { samples; rejected }

let sample s name = Option.value ~default:0.0 (Hashtbl.find_opt s.samples name)

let counter_delta a b name =
  let m = Prometheus.metric_name name ^ "_total" in
  sample b m -. sample a m

let hist_sum_delta a b name =
  let m = Prometheus.metric_name name ^ "_sum" in
  sample b m -. sample a m

type pass = {
  secs : float;
  latency_ms : float array;
  replies : string array;
  alloc_mwords : float;
}

(* One pass over the mix: client [c] sends requests c, c+2, ... on its
   own connection. Each pass reconnects, so every pass starts from fresh
   per-client sessions and passes are alike. *)
let pass ~tel ~socket ~lines ~names =
  let n = Array.length lines in
  let latency_ms = Array.make n 0.0 and replies = Array.make n "" in
  let before = scrape socket in
  let client c () =
    let ctel = Telemetry.fork ~parent:(-1) tel in
    let conn = open_conn socket in
    let i = ref c in
    while !i < n do
      let sp =
        Telemetry.span_open ctel "client.request"
          ~attrs:[ ("request", Telemetry.String names.(!i)) ]
      in
      let t0 = Measure.now () in
      let reply = try call conn lines.(!i) with End_of_file | Sys_error _ -> "" in
      latency_ms.(!i) <- (Measure.now () -. t0) *. 1000.0;
      replies.(!i) <- reply;
      let trace_id =
        if Telemetry.enabled ctel then
          match Sjson.parse reply with
          | Ok j -> Option.bind (Sjson.member "trace_id" j) Sjson.get_string
          | Error _ -> None
        else None
      in
      Telemetry.span_close ctel sp
        ~attrs:
          (("latency_ms", Telemetry.Float latency_ms.(!i))
          :: Option.fold ~none:[] ~some:(fun t -> [ ("trace_id", Telemetry.String t) ]) trace_id);
      i := !i + clients
    done;
    close_conn conn
  in
  let t0 = Measure.now () in
  let threads = List.init clients (fun c -> Thread.create (client c) ()) in
  List.iter Thread.join threads;
  let secs = Measure.now () -. t0 in
  let after = scrape socket in
  let alloc_mwords = hist_sum_delta before after "server.request_alloc_words" /. 1e6 in
  ({ secs; latency_ms; replies; alloc_mwords }, (before, after))

let passes ~budget ~tel ~socket ~lines ~names =
  Measure.repeat ~budget (fun () -> pass ~tel ~socket ~lines ~names)

(* Every reply of every pass is checked; the reference work for one
   request is shared by identical replies. *)
let check requests passes =
  let tally = Measure.tally () in
  let memo tbl key f =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
      let v = f () in
      Hashtbl.add tbl key v;
      v
  in
  let subjects = Hashtbl.create 64 and outcomes = Hashtbl.create 256 in
  let outcome i reply () =
    match Sjson.parse reply with
    | Error _ -> Verify.Undecided "no reply"
    | Ok j -> (
      match requests.(i) with
      | Gen.Solve { inst; models } ->
        Verify.check_solve_reply (memo subjects i (fun () -> Verify.subject inst)) ~models j
      | Gen.Script { script; _ } -> Verify.check_script_reply script j)
  in
  List.iter
    (fun (p, _) ->
      Array.iteri
        (fun i reply ->
          Measure.record tally (Gen.request_name requests.(i))
            (memo outcomes (i, reply) (outcome i reply)))
        p.replies)
    passes;
  tally

let setup ~size ~seed ~trace =
  let requests = Array.of_list (Gen.server_mix ~size ~seed) in
  let lines = Array.mapi request_line requests in
  let names = Array.map Gen.request_name requests in
  (requests, lines, names, start_daemon ~trace)

(* Unlike the batch workloads, medians: a request's latency includes its
   wait behind the other client, and the fastest of a few passes would
   pick whichever pass happened not to wait. Each request's median over
   the passes, then percentiles over the requests. *)
let end_to_end ~setup_s ~tally ~rss passes =
  let ps = List.map fst passes in
  let latency =
    List.init (Array.length (List.hd ps).latency_ms) (fun i ->
        Measure.median (List.map (fun p -> p.latency_ms.(i)) ps))
  in
  [
    ("wall_s", Measure.median (List.map (fun p -> p.secs) ps));
    ("p50_ms", Measure.percentile 0.50 latency);
    ("p95_ms", Measure.percentile 0.95 latency);
    ( "decided_ratio",
      Measure.ratio (float_of_int tally.Measure.decided) (float_of_int tally.Measure.attempted) );
    ("alloc_mwords", Measure.median (List.map (fun p -> p.alloc_mwords) ps));
    ("peak_rss_mb", rss);
    ("setup_s", setup_s);
  ]

let untraced ~size ~seed ~seconds ~setups ~setup_seconds =
  let setup_s, (requests, lines, names, d) =
    Measure.setup ~setups ~seconds:setup_seconds
      ~discard:(fun (_, _, _, d) -> ignore (stop_daemon d))
      (fun () -> setup ~size ~seed ~trace:None)
  in
  let passes = passes ~budget:seconds ~tel:Telemetry.disabled ~socket:d.socket ~lines ~names in
  let rss = stop_daemon d in
  let tally = check requests passes in
  { Measure.tally; metrics = end_to_end ~setup_s ~tally ~rss passes; traces = [] }

let num = function Sjson.Num f -> Some f | _ -> None

let traced ~size ~seed ~seconds =
  let requests, lines, names, d = setup ~size ~seed ~trace:None in
  let base =
    passes ~budget:(seconds /. 2.0) ~tel:Telemetry.disabled ~socket:d.socket ~lines ~names
  in
  ignore (stop_daemon d);
  let daemon_trace = Measure.out_file (Printf.sprintf "server-seed%d.daemon.jsonl" seed) in
  let client_trace = Measure.out_file (Printf.sprintf "server-seed%d.client.jsonl" seed) in
  let d = start_daemon ~trace:(Some daemon_trace) in
  let oc = open_out client_trace in
  let tel = Telemetry.create ~trace:oc () in
  let traced = passes ~budget:(seconds /. 2.0) ~tel ~socket:d.socket ~lines ~names in
  ignore (stop_daemon d);
  Telemetry.close tel;
  close_out oc;
  let tally = check requests (base @ traced) in
  let first, _ = snd (List.hd traced) and _, last = snd (List.hd (List.rev traced)) in
  let dtrace = Layers.load daemon_trace and ctrace = Layers.load client_trace in
  let spans = Layers.summarize dtrace in
  let n = List.length traced in
  let requests_spans =
    List.filter (fun (sp : T.span) -> sp.T.sp_name = "server.request") (T.spans dtrace)
  in
  let attr name (sp : T.span) = Option.bind (List.assoc_opt name sp.T.sp_attrs) num in
  let queue_wait = List.filter_map (attr "queue_wait_ms") requests_spans in
  let request_ms = List.map (fun (sp : T.span) -> sp.T.sp_dur *. 1000.0) requests_spans in
  let by_trace = Hashtbl.create 512 in
  List.iter
    (fun (sp : T.span) -> Option.iter (fun t -> Hashtbl.replace by_trace t sp) sp.T.sp_trace)
    requests_spans;
  let io_ms =
    List.filter_map
      (fun (sp : T.span) ->
        match (List.assoc_opt "trace_id" sp.T.sp_attrs, attr "latency_ms" sp) with
        | Some (Sjson.Str tid), Some latency -> (
          match Hashtbl.find_opt by_trace tid with
          | Some rq ->
            let wait = Option.value ~default:0.0 (attr "queue_wait_ms" rq) in
            Some (latency -. (rq.T.sp_dur *. 1000.0) -. wait)
          | None -> None)
        | _ -> None)
      (T.spans ctrace)
  in
  let client_ms =
    List.concat_map (fun (p, _) -> Array.to_list p.latency_ms) traced |> List.fold_left ( +. ) 0.0
  in
  let bytes = Array.fold_left (fun a l -> a + String.length l) 0 lines in
  let layers =
    Layers.metrics ~passes:n
      ~counter:(counter_delta first last)
      ~relax_lp_s:(hist_sum_delta first last "bp.relax.lp_time")
      ~busy_s:(Layers.total spans "server.request" /. float_of_int n)
      ~frontend_s:(Layers.self spans "frontend" /. float_of_int n)
      ~frontend_bytes:(float_of_int bytes) spans
  in
  let server =
    [
      ("server.queue_wait_p50_ms", Measure.percentile 0.50 queue_wait);
      ("server.queue_wait_p95_ms", Measure.percentile 0.95 queue_wait);
      ("server.request_p50_ms", Measure.percentile 0.50 request_ms);
      ("server.request_p95_ms", Measure.percentile 0.95 request_ms);
      ("server.io_p50_ms", Measure.percentile 0.50 io_ms);
      ("server.rejected", last.rejected -. first.rejected);
    ]
  in
  let median_secs ps = Measure.median (List.map (fun (p, _) -> p.secs) ps) in
  let daemon_s =
    Layers.total spans "server.request" +. (List.fold_left ( +. ) 0.0 queue_wait /. 1000.0)
  in
  let trace_metrics =
    [
      ("trace.overhead_ratio", Measure.ratio (median_secs traced) (median_secs base));
      ("trace.coverage_ratio", Measure.ratio daemon_s (client_ms /. 1000.0));
    ]
  in
  {
    Measure.tally;
    metrics = layers @ server @ trace_metrics;
    traces = [ daemon_trace; client_trace ];
  }
