(* Fault-tolerant serving (DESIGN.md Sec. 15): the seeded network chaos
   harness against the reconnecting session client — transcripts under
   faults must be byte-identical to a fault-free run, with zero daemon
   crashes, zero verdict flips and zero leaked descriptors — plus the
   supporting machinery: executor supervision, the lane panic barrier,
   I/O deadlines, frame caps, EPIPE isolation, stale-socket recovery and
   the hardened JSON parser's bounds. *)

module Server = Absolver_server.Server
module Sjson = Absolver_server.Sjson
module Io = Absolver_server.Io
module Client = Absolver_client.Client
module Pool = Absolver_server.Pool
module Faults = Absolver_resource.Faults
module Budget = Absolver_resource.Budget

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Socket-server harness                                               *)
(* ------------------------------------------------------------------ *)

let fresh_sock_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "absolver-chaos-%d-%d.sock" (Unix.getpid ()) !n)

type server_handle = {
  h_srv : Server.t;
  h_th : Thread.t;
  h_result : (unit, string) result ref;
}

let start_socket_server ?config path =
  let config =
    match config with Some c -> c | None -> Test_server.test_config ()
  in
  let srv = Server.create ~config () in
  let result = ref (Ok ()) in
  let th = Thread.create (fun () -> result := Server.serve_socket srv ~path) () in
  (* wait for the listener: a refused dial means it is not up yet *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Unix.gettimeofday () < deadline then begin
        Thread.delay 0.01;
        wait ()
      end
      else Alcotest.fail "socket server did not come up"
  in
  wait ();
  { h_srv = srv; h_th = th; h_result = result }

let stop_socket_server h =
  Server.request_stop h.h_srv;
  Thread.join h.h_th;
  Server.shutdown h.h_srv;
  match !(h.h_result) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "serve_socket: %s" e

(* ------------------------------------------------------------------ *)
(* Seeded session scripts                                              *)
(*                                                                     *)
(* Two families: flat scripts (asserts / check-sat / get-model, no     *)
(* scoping) exercise byte-identical model replay; scoped scripts       *)
(* (push/pop, verdicts only) exercise journal compaction.  Replies are *)
(* deterministic for both under arbitrary reconnects.                  *)
(* ------------------------------------------------------------------ *)

let gen_session st =
  let a () = 1 + Random.State.int st 5 in
  let r () = Random.State.int st 13 - 4 in
  let lin () =
    Printf.sprintf "(assert (<= (+ (* %d x) (* %d y)) %d))" (a ()) (a ()) (r ())
  in
  let scoped = Random.State.bool st in
  let cmds = ref [ "(declare-const y Real)"; "(declare-const x Real)" ] in
  let depth = ref 0 in
  let n = 3 + Random.State.int st 5 in
  for _ = 1 to n do
    match Random.State.int st 6 with
    | 0 | 1 -> cmds := lin () :: !cmds
    | 2 -> cmds := Printf.sprintf "(assert (>= x %d))" (r ()) :: !cmds
    | 3 when scoped ->
      incr depth;
      cmds := "(push 1)" :: !cmds
    | 4 when scoped && !depth > 0 ->
      decr depth;
      cmds := "(pop 1)" :: !cmds
    | _ -> cmds := "(check-sat)" :: !cmds
  done;
  cmds := "(check-sat)" :: !cmds;
  if not scoped then cmds := "(get-model)" :: !cmds;
  List.rev !cmds

(* Run one script through its own client connection; the transcript is
   the concatenation of all reply lines. *)
let run_session path cfg cmds =
  match Client.connect ~config:cfg ~path () with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok cl ->
    let out =
      List.concat_map
        (fun cmd ->
          match Client.command cl cmd with
          | Ok rs -> rs
          | Error e -> Alcotest.failf "command %s: %s" cmd e)
        cmds
    in
    Client.close cl;
    out

(* A small thread pool over an array of jobs: the chaos suite drives
   many sessions concurrently, like real clients would. *)
let map_par nthreads f xs =
  let arr = Array.of_list xs in
  let out = Array.make (Array.length arr) [] in
  let next = Atomic.make 0 in
  let worker () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length arr then begin
        out.(i) <- f arr.(i);
        go ()
      end
    in
    go ()
  in
  let ths = List.init (max 1 nthreads) (fun _ -> Thread.create worker ()) in
  List.iter Thread.join ths;
  Array.to_list out

(* ------------------------------------------------------------------ *)
(* The chaos differential                                              *)
(* ------------------------------------------------------------------ *)

let chaos_client_config =
  {
    Client.default_config with
    Client.journal_solves = true;
    request_timeout_s = 10.0;
    connect_timeout_s = 10.0;
    max_attempts = 16;
    backoff_base_s = 0.002;
    backoff_max_s = 0.05;
  }

let test_chaos_differential () =
  let n_scripts = 200 in
  let scripts =
    let st = Random.State.make [| 0xc4a05 |] in
    List.init n_scripts (fun _ -> gen_session st)
  in
  let fds0 = open_fds () in
  let path = fresh_sock_path () in
  let h = start_socket_server path in
  let run cmds = run_session path chaos_client_config cmds in
  let reference = map_par 8 run scripts in
  let chaos_pass () =
    Faults.Net.arm
      ~plan:
        {
          Faults.Net.default_plan with
          Faults.Net.seed = 42;
          max_delay_ms = 2.0;
        }
      ();
    let chaotic =
      match map_par 8 run scripts with
      | r -> r
      | exception e ->
        Faults.Net.disarm ();
        raise e
    in
    let injected = List.sort compare (Faults.Net.injected ()) in
    Faults.Net.disarm ();
    (chaotic, injected)
  in
  let check_transcripts chaotic =
    List.iteri
      (fun i (want, got) ->
        if want <> got then
          Alcotest.failf
            "script %d: transcript diverged under chaos\nfault-free: %s\nchaos:      %s"
            (i + 1)
            (String.concat " | " want)
            (String.concat " | " got))
      (List.combine reference chaotic)
  in
  let chaotic, injected = chaos_pass () in
  let total_injected = List.fold_left (fun n (_, k) -> n + k) 0 injected in
  if total_injected = 0 then
    Alcotest.fail "chaos plan injected nothing — the harness is not wired";
  check_transcripts chaotic;
  List.iter (fun (kind, n) -> Printf.printf "injected %s: %d\n" kind n) injected;
  (* Every session draws its faults from its own frames, so a second
     storm with the same plan hits the same sessions the same way,
     whatever the thread interleaving. *)
  let chaotic, injected' = chaos_pass () in
  check_transcripts chaotic;
  check
    (Alcotest.list (Alcotest.pair string_t int_t))
    "same plan, same injected faults" injected injected';
  (* the daemon took the whole storm without degrading *)
  (match List.assoc "health" (Server.health_fields h.h_srv) with
  | Sjson.Str s -> check string_t "health after chaos" "ok" s
  | _ -> Alcotest.fail "health field missing");
  stop_socket_server h;
  check int_t "no leaked fds" fds0 (open_fds ())

(* Kill the daemon mid-session, restart it on the same path: the client
   reconnects and replays its journal, and the continued session's
   replies match an uninterrupted run of the same commands. *)
let test_kill_restart_replay () =
  let path = fresh_sock_path () in
  let script =
    [
      "(declare-const x Real)";
      "(assert (>= x 1))";
      "(check-sat)";
      "(get-model)";
      (* --- daemon killed and restarted here --- *)
      "(assert (<= x 5))";
      "(check-sat)";
      "(get-model)";
    ]
  in
  let h1 = start_socket_server path in
  let cl =
    match Client.connect ~config:chaos_client_config ~path () with
    | Ok cl -> cl
    | Error e -> Alcotest.failf "connect: %s" e
  in
  let run cmd =
    match Client.command cl cmd with
    | Ok rs -> rs
    | Error e -> Alcotest.failf "command %s: %s" cmd e
  in
  let first, second =
    match script with
    | a :: b :: c :: d :: rest -> ([ a; b; c; d ], rest)
    | _ -> assert false
  in
  let out1 = List.concat_map run first in
  stop_socket_server h1;
  let h2 = start_socket_server path in
  let out2 = List.concat_map run second in
  Client.close cl;
  if Client.reconnects cl < 1 then Alcotest.fail "client never reconnected";
  if Client.replayed cl = 0 then Alcotest.fail "journal was not replayed";
  (* uninterrupted reference on a fresh daemon *)
  let reference = run_session path chaos_client_config script in
  stop_socket_server h2;
  check (Alcotest.list string_t) "transcript matches uninterrupted run"
    reference (out1 @ out2)

(* ------------------------------------------------------------------ *)
(* Executor supervision                                                *)
(* ------------------------------------------------------------------ *)

let wait_for ?(timeout = 5.0) pred what =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let submit_ok e f =
  match Pool.Executor.submit e f with
  | Pool.Executor.Submitted -> ()
  | Pool.Executor.Rejected r -> Alcotest.failf "submit rejected: %s" r

let test_executor_supervision () =
  let e = Pool.Executor.create ~workers:2 ~restart_limit:2 () in
  submit_ok e (fun () -> raise Pool.Executor.Kill_worker);
  wait_for
    (fun () ->
      Pool.Executor.worker_deaths e = 1 && Pool.Executor.live_workers e = 2)
    "first worker respawn";
  check int_t "one restart used" 1 (Pool.Executor.worker_restarts e);
  check bool_t "not degraded" false (Pool.Executor.degraded e);
  let hit = Atomic.make false in
  submit_ok e (fun () -> Atomic.set hit true);
  wait_for (fun () -> Atomic.get hit) "job on respawned pool";
  (* exhaust the restart budget *)
  submit_ok e (fun () -> raise Pool.Executor.Kill_worker);
  submit_ok e (fun () -> raise Pool.Executor.Kill_worker);
  wait_for
    (fun () ->
      Pool.Executor.worker_deaths e = 3 && Pool.Executor.live_workers e = 1)
    "restart budget exhaustion";
  check bool_t "degraded after budget exhausted" true (Pool.Executor.degraded e);
  check int_t "abandoned jobs counted" 3 (Pool.Executor.lost_jobs e);
  (* the surviving worker still serves *)
  let hit2 = Atomic.make false in
  submit_ok e (fun () -> Atomic.set hit2 true);
  wait_for (fun () -> Atomic.get hit2) "job on degraded pool";
  Pool.Executor.shutdown e

(* The server's lane panic barrier: an injected exception inside a lane
   job yields one typed internal_error reply; the connection, the lane
   and the worker all survive. *)
let test_lane_panic_barrier () =
  Fun.protect ~finally:Faults.disarm_all (fun () ->
      Test_server.with_server (fun srv ->
          let conn = Test_server.connect srv in
          Faults.arm ~point:"server.lane" Faults.Raise;
          let resp =
            Test_server.roundtrip conn {|{"id":1,"op":"health"}|}
          in
          check (Alcotest.option string_t) "status error" (Some "error")
            (Test_server.str_field "status" resp);
          check (Alcotest.option string_t) "typed kind" (Some "internal_error")
            (Test_server.str_field "kind" resp);
          (* same connection, next request: the lane is alive *)
          let resp2 =
            Test_server.roundtrip conn {|{"id":2,"op":"health"}|}
          in
          check (Alcotest.option string_t) "lane survived" (Some "ok")
            (Test_server.str_field "status" resp2);
          let stats =
            Test_server.roundtrip conn {|{"id":3,"op":"stats"}|}
          in
          (match
             Option.bind (Test_server.field "stats" stats)
               (fun s ->
                 Option.bind (Sjson.member "errors" s) (Sjson.member "internal"))
           with
          | Some (Sjson.Num n) ->
            check bool_t "internal error counted" true (n >= 1.0)
          | _ -> Alcotest.fail "stats.errors.internal missing");
          ignore (Test_server.finish conn)))

(* ------------------------------------------------------------------ *)
(* I/O limits over the pipe harness                                    *)
(* ------------------------------------------------------------------ *)

let config_with_io io =
  { (Test_server.test_config ()) with Server.io }

let test_idle_timeout_reclaims () =
  let io = { Io.default_limits with Io.idle_timeout_s = Some 0.3 } in
  Test_server.with_server ~config:(config_with_io io) (fun srv ->
      let conn = Test_server.connect srv in
      let resp = Test_server.roundtrip conn {|{"id":1,"op":"health"}|} in
      check (Alcotest.option string_t) "healthy first" (Some "ok")
        (Test_server.str_field "status" resp);
      (* stay silent: the server reclaims the connection on its own *)
      let line = Test_server.recv conn in
      check (Alcotest.option string_t) "idle-timeout error"
        (Some "idle timeout, closing connection")
        (Test_server.str_field "error" line);
      (match Test_server.recv conn with
      | exception End_of_file -> ()
      | l -> Alcotest.failf "expected EOF after idle reclaim, got %s" l);
      ignore (Test_server.finish conn))

let test_read_deadline_reclaims () =
  let io = { Io.default_limits with Io.read_deadline_s = Some 0.3 } in
  Test_server.with_server ~config:(config_with_io io) (fun srv ->
      let conn = Test_server.connect srv in
      ignore (Test_server.roundtrip conn {|{"id":1,"op":"health"}|});
      (* a torn frame: bytes arrive, the newline never does *)
      output_string conn.Test_server.wr "{\"id\":2,\"op\":";
      flush conn.Test_server.wr;
      let line = Test_server.recv conn in
      check (Alcotest.option string_t) "read-deadline error"
        (Some "read deadline exceeded, closing connection")
        (Test_server.str_field "error" line);
      ignore (Test_server.finish conn))

let test_oversized_frame_rejected () =
  let io = { Io.default_limits with Io.max_frame_bytes = 512 } in
  Test_server.with_server ~config:(config_with_io io) (fun srv ->
      let conn = Test_server.connect srv in
      ignore (Test_server.roundtrip conn {|{"id":1,"op":"health"}|});
      Test_server.send conn ("{\"id\":2," ^ String.make 1024 'x');
      let line = Test_server.recv conn in
      check (Alcotest.option string_t) "oversize error"
        (Some "frame exceeds 512 bytes")
        (Test_server.str_field "error" line);
      ignore (Test_server.finish conn))

(* A peer that vanishes mid-request: the reply write fails (EPIPE), the
   client's umbrella budget is cancelled so in-flight work drains, the
   disconnect reason lands in stats, and nothing is written to the dead
   descriptor — all without touching the sibling connection. *)
let test_disconnect_mid_request () =
  Test_server.with_server (fun srv ->
      let watcher = Test_server.connect srv in
      let conn = Test_server.connect srv in
      ignore (Test_server.roundtrip conn {|{"id":1,"op":"health"}|});
      (* close only our read side: the server's next reply hits EPIPE
         while its reader is still blocked on the request pipe *)
      (try close_in conn.Test_server.rd with Sys_error _ -> ());
      Test_server.send conn
        (Test_server.solve_request 2
           (Test_server.gen_problem (Random.State.make [| 7 |])));
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec poll () =
        let resp =
          Test_server.roundtrip watcher {|{"id":9,"op":"stats"}|}
        in
        let epipe =
          Option.bind (Test_server.field "stats" resp) (fun s ->
              Option.bind (Sjson.member "disconnects" s) (Sjson.member "epipe"))
        in
        match epipe with
        | Some (Sjson.Num n) when n >= 1.0 -> ()
        | _ ->
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "epipe disconnect never recorded"
          else begin
            Thread.delay 0.02;
            poll ()
          end
      in
      poll ();
      (* the sibling is untouched and the dead client fully drained *)
      let resp = Test_server.roundtrip watcher {|{"id":10,"op":"health"}|} in
      check (Alcotest.option string_t) "sibling healthy" (Some "ok")
        (Test_server.str_field "status" resp);
      (try close_out conn.Test_server.wr with Sys_error _ -> ());
      Thread.join conn.Test_server.th;
      conn.Test_server.open_ <- false;
      ignore (Test_server.finish watcher))

(* ------------------------------------------------------------------ *)
(* EPIPE isolation over a real socket                                  *)
(* ------------------------------------------------------------------ *)

let test_write_to_closed_socket () =
  let path = fresh_sock_path () in
  let h = start_socket_server path in
  (* a rude client: sends a request and vanishes without reading *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let line = "(check-sat)\n" in
  ignore (Unix.write_substring fd line 0 (String.length line));
  Unix.close fd;
  (* the daemon must shrug it off: a well-behaved client still works *)
  let out = run_session path chaos_client_config [ "(check-sat)" ] in
  check (Alcotest.list string_t) "daemon survived EPIPE" [ "sat" ] out;
  stop_socket_server h

(* ------------------------------------------------------------------ *)
(* Stale-socket handling                                               *)
(* ------------------------------------------------------------------ *)

let test_stale_socket_removed_after_probe () =
  let path = fresh_sock_path () in
  (* a crashed daemon's residue: a bound socket file nobody answers on *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  check bool_t "stale file exists" true (Sys.file_exists path);
  let h = start_socket_server path in
  let out = run_session path chaos_client_config [ "(check-sat)" ] in
  check (Alcotest.list string_t) "restart over stale socket" [ "sat" ] out;
  stop_socket_server h;
  check bool_t "socket removed at shutdown" false (Sys.file_exists path)

let test_live_socket_not_hijacked () =
  let path = fresh_sock_path () in
  let h = start_socket_server path in
  let srv2 = Server.create ~config:(Test_server.test_config ()) () in
  (match Server.serve_socket srv2 ~path with
  | Ok () -> Alcotest.fail "second daemon bound over a live socket"
  | Error e ->
    check bool_t "live-daemon error" true (contains ~needle:"live daemon" e));
  Server.shutdown srv2;
  (* the original daemon is unharmed *)
  let out = run_session path chaos_client_config [ "(check-sat)" ] in
  check (Alcotest.list string_t) "original daemon unharmed" [ "sat" ] out;
  stop_socket_server h

let test_non_socket_file_not_destroyed () =
  let path = Filename.temp_file "absolver-chaos" ".not-a-socket" in
  let oc = open_out path in
  output_string oc "precious";
  close_out oc;
  let srv = Server.create ~config:(Test_server.test_config ()) () in
  (match Server.serve_socket srv ~path with
  | Ok () -> Alcotest.fail "bound over a regular file"
  | Error _ -> ());
  Server.shutdown srv;
  let ic = open_in path in
  let contents = input_line ic in
  close_in ic;
  Sys.remove path;
  check string_t "regular file untouched" "precious" contents

(* ------------------------------------------------------------------ *)
(* Client unit behaviour                                               *)
(* ------------------------------------------------------------------ *)

let test_backoff_deterministic () =
  let cfg = { Client.default_config with Client.backoff_base_s = 0.01 } in
  let sched seed =
    let rng = Random.State.make [| seed |] in
    List.init 10 (fun i -> Client.backoff_s cfg ~rng ~attempt:(i + 1))
  in
  check (Alcotest.list (Alcotest.float 0.0)) "same seed, same schedule"
    (sched 5) (sched 5);
  if sched 5 = sched 6 then Alcotest.fail "different seeds, same schedule";
  List.iter
    (fun d ->
      if d <= 0.0 || d > cfg.Client.backoff_max_s then
        Alcotest.failf "delay %f outside (0, %f]" d cfg.Client.backoff_max_s)
    (sched 5)

let test_journal_compaction () =
  let path = fresh_sock_path () in
  let h = start_socket_server path in
  let cl =
    match Client.connect ~config:Client.default_config ~path () with
    | Ok cl -> cl
    | Error e -> Alcotest.failf "connect: %s" e
  in
  let run cmd =
    match Client.command cl cmd with
    | Ok rs -> rs
    | Error e -> Alcotest.failf "command %s: %s" cmd e
  in
  ignore (run "(declare-const x Real)");
  ignore (run "(assert (>= x 1))");
  ignore (run "(push 1)");
  ignore (run "(assert (<= x 0))");
  check int_t "journal holds base + pushed frame" 3 (Client.journal_length cl);
  ignore (run "(pop 1)");
  check int_t "popped frame compacted away" 2 (Client.journal_length cl);
  (* check-sat is not journaled unless journal_solves *)
  ignore (run "(check-sat)");
  check int_t "solves not journaled" 2 (Client.journal_length cl);
  Client.close cl;
  stop_socket_server h

(* ------------------------------------------------------------------ *)
(* Hardened JSON parsing                                               *)
(* ------------------------------------------------------------------ *)

let test_sjson_bounds () =
  (match Sjson.parse (String.make 600 '[') with
  | Error e ->
    check bool_t "deep nesting rejected" true
      (contains ~needle:"nesting deeper than" e)
  | Ok _ -> Alcotest.fail "600-deep nesting accepted");
  (match Sjson.parse "\"never closed" with
  | Error e ->
    check string_t "unterminated string reports opening byte"
      "unterminated string (opened at byte 0)" e
  | Ok _ -> Alcotest.fail "unterminated string accepted");
  (match Sjson.parse "{\"key\":\"broken" with
  | Error e ->
    check string_t "offset points at the string, not EOF"
      "unterminated string (opened at byte 7)" e
  | Ok _ -> Alcotest.fail "unterminated value accepted");
  let huge =
    "[" ^ String.concat "," (List.init 1_100_000 (fun _ -> "1")) ^ "]"
  in
  match Sjson.parse huge with
  | Error e ->
    check bool_t "node count capped" true
      (contains ~needle:"document too large" e)
  | Ok _ -> Alcotest.fail "1.1M-node document accepted"

let suite =
  [
    Alcotest.test_case "chaos: 200-script differential" `Slow
      test_chaos_differential;
    Alcotest.test_case "chaos: kill-and-restart with replay" `Slow
      test_kill_restart_replay;
    Alcotest.test_case "supervision: executor respawns workers" `Quick
      test_executor_supervision;
    Alcotest.test_case "supervision: lane panic barrier" `Quick
      test_lane_panic_barrier;
    Alcotest.test_case "io: idle timeout reclaims" `Quick
      test_idle_timeout_reclaims;
    Alcotest.test_case "io: read deadline reclaims" `Quick
      test_read_deadline_reclaims;
    Alcotest.test_case "io: oversized frame rejected" `Quick
      test_oversized_frame_rejected;
    Alcotest.test_case "io: disconnect mid-request" `Quick
      test_disconnect_mid_request;
    Alcotest.test_case "io: write to closed socket" `Quick
      test_write_to_closed_socket;
    Alcotest.test_case "socket: stale file removed after probe" `Quick
      test_stale_socket_removed_after_probe;
    Alcotest.test_case "socket: live daemon not hijacked" `Quick
      test_live_socket_not_hijacked;
    Alcotest.test_case "socket: regular file not destroyed" `Quick
      test_non_socket_file_not_destroyed;
    Alcotest.test_case "client: deterministic backoff" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "client: journal compaction" `Quick
      test_journal_compaction;
    Alcotest.test_case "sjson: adversarial bounds" `Quick test_sjson_bounds;
  ]
