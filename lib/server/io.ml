(* Deadline-aware, fault-isolated I/O on raw file descriptors.

   The server's reader threads used to park in blocking [input_line]
   forever when a client went half-open; replies went through buffered
   channels whose short writes and EPIPEs surfaced as [Sys_error]
   strings.  This module replaces both with explicit fd I/O:

   - [read_line] waits in bounded [select] slices, so an idle timeout,
     a per-frame read deadline, a frame-size cap and an external stop
     condition are all enforced without signals or extra threads;
   - [write_all] loops over short writes ([EINTR]/[EAGAIN] included)
     and reports a severed peer as a value, never as an exception;
   - both paths consult {!Absolver_resource.Faults.Net} when the chaos
     harness is armed, applying its seeded decisions (delays, torn
     writes, mid-frame disconnects, refused connections) at exactly the
     byte level a hostile network would.

   Every error is a value of {!event}; no exception escapes, so one
   connection's misbehaviour can never take down a sibling or the
   accept loop. *)

module Net = Absolver_resource.Faults.Net

type limits = {
  idle_timeout_s : float option;
  read_deadline_s : float option;
  max_frame_bytes : int;
}

let default_limits =
  {
    idle_timeout_s = Some 300.0;
    read_deadline_s = Some 30.0;
    max_frame_bytes = 64 * 1024 * 1024;
  }

let unlimited =
  { idle_timeout_s = None; read_deadline_s = None; max_frame_bytes = max_int }

type event =
  | Line of string
  | Eof
  | Idle_timeout
  | Read_deadline
  | Frame_too_large
  | Stopped
  | Io_error of string

(* The longest single [select] wait: the granularity at which external
   stop conditions (server shutdown, a dead peer detected by a writer)
   interrupt a blocked reader. *)
let slice_s = 0.25

type reader = {
  fd : Unix.file_descr;
  limits : limits;
  chaos : bool;  (* consult Faults.Net on this side of the connection *)
  should_stop : unit -> bool;
  busy : unit -> bool;  (* in-flight work parked on this connection? *)
  mutable buf : Bytes.t;  (* bytes received: [buf.[lo .. hi - 1]] is pending *)
  mutable lo : int;
  mutable hi : int;
  chunk : Bytes.t;
  mutable scanned : int;  (* [buf.[lo .. scanned - 1]] is '\n'-free *)
  mutable last_activity : float;
  mutable frame_started : float option;  (* first byte of current frame *)
  mutable at_eof : bool;
  mutable frames : int;  (* frames returned so far *)
}

let now () = Absolver_telemetry.Telemetry.Clock.now ()

let reader ?(limits = default_limits) ?(chaos = false)
    ?(should_stop = fun () -> false) ?(busy = fun () -> false) fd =
  {
    fd;
    limits;
    chaos;
    should_stop;
    busy;
    buf = Bytes.create 256;
    lo = 0;
    hi = 0;
    chunk = Bytes.create 8192;
    scanned = 0;
    last_activity = now ();
    frame_started = None;
    at_eof = false;
    frames = 0;
  }

let touch r = r.last_activity <- now ()
let pending r = r.hi - r.lo

let clear r =
  r.lo <- 0;
  r.hi <- 0;
  r.scanned <- 0

(* Sever a connection the way a hostile network would: the peer sees
   EOF / ECONNRESET, but the fd number stays valid until its owner
   closes it — chaos must never introduce double-close races. *)
let sever fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* The chaos decision for a frame just read: maybe a delay, maybe a
   severed connection that loses the frame (and anything buffered after
   it). *)
let frame_chaos r line =
  let first = r.frames = 0 in
  r.frames <- r.frames + 1;
  if r.chaos && Net.armed () then begin
    let d = Net.on_frame ~first line in
    if d.Net.delay_ms > 0.0 then Unix.sleepf (d.Net.delay_ms /. 1000.0);
    if d.Net.drop then begin
      sever r.fd;
      clear r;
      r.at_eof <- true;
      Eof
    end
    else Line line
  end
  else Line line

(* Extract one complete line from [buf], if any, searching in place
   from where previous calls stopped and copying the line out once, so
   reading a long frame stays linear in its length. *)
let take_line r =
  let rec newline i = if i < r.hi && Bytes.get r.buf i <> '\n' then newline (i + 1) else i in
  let i = newline r.scanned in
  if i = r.hi then begin
    r.scanned <- i;
    None
  end
  else begin
    let stop = if i > r.lo && Bytes.get r.buf (i - 1) = '\r' then i - 1 else i in
    let line = Bytes.sub_string r.buf r.lo (stop - r.lo) in
    r.lo <- i + 1;
    r.scanned <- r.lo;
    if r.lo = r.hi then clear r;
    r.frame_started <- (if pending r > 0 then Some (now ()) else None);
    Some line
  end

(* Append [chunk.[0 .. n - 1]]: slide the pending bytes to the front
   when that frees room, else double the buffer. *)
let append r n =
  if r.hi + n > Bytes.length r.buf then begin
    let len = pending r in
    let target =
      if len + n <= Bytes.length r.buf / 2 then r.buf
      else Bytes.create (max (2 * Bytes.length r.buf) (len + n))
    in
    Bytes.blit r.buf r.lo target 0 len;
    r.buf <- target;
    r.scanned <- r.scanned - r.lo;
    r.lo <- 0;
    r.hi <- len
  end;
  Bytes.blit r.chunk 0 r.buf r.hi n;
  r.hi <- r.hi + n

(* One '\n'-terminated frame (the trailing ['\r'] of CRLF is stripped).
   Waits honour, in order: the external stop condition, the frame-size
   cap, the per-frame read deadline (counted from the frame's first
   byte) and the idle timeout (counted from the last activity, and only
   when no request of this connection is still in flight — a client
   quietly waiting for a long solve is not idle). *)
let read_line r =
  let rec go () =
    if r.should_stop () then Stopped
    else
      match take_line r with
      | Some line ->
        if String.length line > r.limits.max_frame_bytes then Frame_too_large
        else begin
          touch r;
          frame_chaos r line
        end
      | None ->
        if pending r > r.limits.max_frame_bytes then Frame_too_large
        else if r.at_eof then Eof
        else begin
          let t = now () in
          let deadline_hit =
            match (r.frame_started, r.limits.read_deadline_s) with
            | Some t0, Some d -> t -. t0 >= d
            | _ -> false
          in
          let idle_hit =
            match r.limits.idle_timeout_s with
            | Some d -> (not (r.busy ())) && t -. r.last_activity >= d
            | None -> false
          in
          if deadline_hit then Read_deadline
          else if idle_hit && r.frame_started = None then Idle_timeout
          else if idle_hit then Read_deadline
          else begin
            match Unix.select [ r.fd ] [] [] slice_s with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
            | exception Unix.Unix_error (e, _, _) ->
              Io_error (Unix.error_message e)
            | [], _, _ -> go ()
            | _ :: _, _, _ -> (
                match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
                | exception
                    Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  go ()
                | exception
                    Unix.Unix_error
                      ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
                  Eof
                | exception Unix.Unix_error (e, _, _) ->
                  Io_error (Unix.error_message e)
                | 0 ->
                  r.at_eof <- true;
                  go ()
                | n ->
                  touch r;
                  if r.frame_started = None then r.frame_started <- Some (now ());
                  append r n;
                  go ())
          end
        end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Writes                                                              *)
(* ------------------------------------------------------------------ *)

type write_error = Peer_closed | Write_error of string

(* Write the whole buffer, riding out short writes, EINTR and EAGAIN.
   A severed peer (EPIPE / ECONNRESET — SIGPIPE is ignored process-wide
   by the server) is reported as [Peer_closed].  With chaos armed on
   this side, the seeded plan may delay the write, tear it in two with
   a delay between the halves, or sever the connection mid-frame. *)
let write_all ?(chaos = false) fd s =
  let d =
    if chaos && Net.armed () then Net.on_write s
    else Net.no_decision
  in
  if d.Net.delay_ms > 0.0 then Unix.sleepf (d.Net.delay_ms /. 1000.0);
  let b = Bytes.of_string s in
  let rec loop off len =
    if len = 0 then Ok ()
    else
      match Unix.write fd b off len with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop off len
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        match Unix.select [] [ fd ] [] slice_s with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop off len
        | exception Unix.Unix_error (e, _, _) ->
          Error (Write_error (Unix.error_message e))
        | _ -> loop off len)
      | exception
          Unix.Unix_error
            ((Unix.EPIPE | Unix.ECONNRESET | Unix.ESHUTDOWN | Unix.EBADF), _, _)
        ->
        Error Peer_closed
      | exception Unix.Unix_error (e, _, _) ->
        Error (Write_error (Unix.error_message e))
      | n -> loop (off + n) (len - n)
  in
  match d.Net.tear_at with
  | Some k when k < String.length s && not d.Net.drop -> (
    match loop 0 k with
    | Error _ as e -> e
    | Ok () ->
      Unix.sleepf 0.001;
      loop k (String.length s - k))
  | _ ->
    if d.Net.drop then begin
      (* deliver a prefix, then sever mid-frame *)
      let k = max 1 (String.length s / 2) in
      ignore (loop 0 k);
      sever fd;
      Error Peer_closed
    end
    else loop 0 (String.length s)
