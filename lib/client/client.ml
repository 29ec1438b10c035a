(* Reconnecting session-replay client (DESIGN.md Sec. 15.3).

   The transport is the server's JSON framing with exactly one SMT-LIB 2
   command per request: pairing a request with its reply then survives
   any connection loss, because a connection never carries more than one
   unanswered request from this client.  Session state lost with a
   connection is rebuilt from the command journal — the sequence of
   state-bearing commands the server has acknowledged, compacted under
   push/pop (popping a frame discards its commands instead of replaying
   and re-popping them) — sent back as a single request. *)

module Sjson = Absolver_server.Sjson
module Io = Absolver_server.Io
module Smt2 = Absolver_smtlib.Smt2

type config = {
  connect_timeout_s : float;
  request_timeout_s : float;
  max_attempts : int;
  backoff_base_s : float;
  backoff_max_s : float;
  seed : int;
  journal_solves : bool;
}

let default_config =
  {
    connect_timeout_s = 5.0;
    request_timeout_s = 30.0;
    max_attempts = 8;
    backoff_base_s = 0.01;
    backoff_max_s = 0.5;
    seed = 0;
    journal_solves = false;
  }

type conn = { fd : Unix.file_descr; rdr : Io.reader }

type t = {
  path : string;
  cfg : config;
  rng : Random.State.t;
  mutable conn : conn option;
  mutable next_id : int;
  (* journal frames, innermost first; commands within a frame newest
     first.  The base frame (never popped) is always present. *)
  mutable frames : string list list;
  mutable n_retries : int;
  mutable n_reconnects : int;
  mutable n_replayed : int;
  mutable connected_once : bool;
  mutable closed : bool;
}

let retries t = t.n_retries
let reconnects t = t.n_reconnects
let replayed t = t.n_replayed
let journal_length t = List.fold_left (fun n f -> n + List.length f) 0 t.frames

let backoff_s cfg ~rng ~attempt =
  let nominal =
    Float.min cfg.backoff_max_s
      (cfg.backoff_base_s *. (2.0 ** float_of_int (max 0 (attempt - 1))))
  in
  nominal *. (0.5 +. (0.5 *. Random.State.float rng 1.0))

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Journal semantics                                                   *)
(* ------------------------------------------------------------------ *)

let is_head_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '!' | '?' | '.' -> true
  | _ -> false

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* First atom inside the outer parens, lowercased; "" when there is
   none (the server will answer such a command with an error anyway). *)
let head_of cmd =
  let n = String.length cmd in
  let i = ref 0 in
  while !i < n && (cmd.[!i] = '(' || is_space cmd.[!i]) do
    incr i
  done;
  let j = ref !i in
  while !j < n && is_head_char cmd.[!j] do
    incr j
  done;
  String.lowercase_ascii (String.sub cmd !i (!j - !i))

(* The numeral argument of (push n) / (pop n); 1 when absent. *)
let int_arg cmd =
  let n = String.length cmd in
  let i = ref 0 in
  while !i < n && (cmd.[!i] = '(' || is_space cmd.[!i]) do
    incr i
  done;
  while !i < n && is_head_char cmd.[!i] do
    incr i
  done;
  while !i < n && is_space cmd.[!i] do
    incr i
  done;
  let j = ref !i in
  while !j < n && cmd.[!j] >= '0' && cmd.[!j] <= '9' do
    incr j
  done;
  if !j > !i then
    match int_of_string_opt (String.sub cmd !i (!j - !i)) with
    | Some k when k >= 0 -> k
    | _ -> 1
  else 1

type effect = Journal | Push of int | Pop of int | Reset | Ephemeral | Exit

let effect_of cfg cmd =
  match head_of cmd with
  | "push" -> Push (int_arg cmd)
  | "pop" -> Pop (int_arg cmd)
  | "reset" -> Reset
  | "exit" -> Exit
  | "assert" | "declare-const" | "declare-fun" | "declare-sort"
  | "define-fun" | "define-sort" | "set-logic" | "set-option" | "set-info" ->
    Journal
  | _ -> if cfg.journal_solves then Journal else Ephemeral

(* A journal mutation happens only after the server acknowledged the
   command without an [(error ...)] reply — a rejected pop must not
   silently drop a frame the server still holds. *)
let errored replies =
  List.exists
    (fun r -> String.length r >= 6 && String.sub r 0 6 = "(error")
    replies

let apply_effect t cmd eff replies =
  if not (errored replies) then
    match eff with
    | Ephemeral -> ()
    | Exit -> t.closed <- true
    | Journal -> (
      match t.frames with
      | f :: rest -> t.frames <- (cmd :: f) :: rest
      | [] -> t.frames <- [ [ cmd ] ])
    | Push n ->
      for _ = 1 to n do
        t.frames <- [] :: t.frames
      done
    | Pop n ->
      let rec drop k fs =
        match (k, fs) with
        | 0, fs -> fs
        | _, ([] | [ _ ]) -> fs (* the base frame is never popped *)
        | k, _ :: tl -> drop (k - 1) tl
      in
      t.frames <- drop n t.frames
    | Reset -> t.frames <- [ [] ]

(* Replay order: base frame first, then each inner frame behind a fresh
   [(push 1)] — the server's stack depth after replay matches what the
   session's future pops expect. *)
let replay_list t =
  match List.rev_map List.rev t.frames with
  | [] -> []
  | base :: inner -> base @ List.concat_map (fun f -> "(push 1)" :: f) inner

(* ------------------------------------------------------------------ *)
(* Transport                                                           *)
(* ------------------------------------------------------------------ *)

let reader_limits cfg =
  {
    (* the reply deadline is idle-based: the clock starts at the
       request send ([Io.touch]) and any reply byte restarts it *)
    Io.idle_timeout_s = Some cfg.request_timeout_s;
    read_deadline_s = Some cfg.request_timeout_s;
    max_frame_bytes = 256 * 1024 * 1024;
  }

let drop_conn t =
  match t.conn with
  | None -> ()
  | Some c ->
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.conn <- None

(* Dial until the connect budget runs out: a refused or missing socket
   is what a restarting daemon (or a chaos-refused accept) looks like,
   so it is retried, not fatal. *)
let dial t =
  let deadline = now () +. t.cfg.connect_timeout_s in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX t.path) with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) -> (
      (try Unix.close fd with Unix.Unix_error _ -> ());
      match e with
      | Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN | Unix.EINTR
        when now () < deadline ->
        Unix.sleepf 0.02;
        go ()
      | _ -> Error ("connect " ^ t.path ^ ": " ^ Unix.error_message e))
  in
  go ()

type outcome = Replies of string list | Rejected of string | Transport of string

let parse_reply expect_id line =
  match Sjson.parse line with
  | Error e -> Transport ("garbled reply: " ^ e)
  | Ok obj -> (
    match Option.bind (Sjson.member "id" obj) Sjson.get_int with
    | Some id when id <> expect_id -> Transport "reply id mismatch"
    | _ -> (
      match Option.bind (Sjson.member "status" obj) Sjson.get_string with
      | Some "ok" ->
        let replies =
          match Sjson.member "replies" obj with
          | Some (Sjson.Arr items) -> List.filter_map Sjson.get_string items
          | _ -> []
        in
        Replies replies
      | Some "rejected" ->
        Rejected
          (Option.value ~default:"rejected"
             (Option.bind (Sjson.member "reason" obj) Sjson.get_string))
      | Some "error" ->
        (* a deterministic protocol answer, not a transport fault:
           surface it in SMT-LIB error shape so transcripts compare *)
        let msg =
          Option.value ~default:"error"
            (Option.bind (Sjson.member "error" obj) Sjson.get_string)
        in
        let b = Buffer.create (String.length msg + 12) in
        Buffer.add_string b "(error \"";
        String.iter
          (fun ch ->
            if ch = '"' then Buffer.add_string b "\"\""
            else Buffer.add_char b ch)
          msg;
        Buffer.add_string b "\")";
        Replies [ Buffer.contents b ]
      | _ -> Transport "reply without status"))

let roundtrip t conn cmd =
  let id = t.next_id in
  t.next_id <- id + 1;
  let req =
    Sjson.to_string
      (Sjson.Obj
         [
           ("id", Sjson.Num (float_of_int id));
           ("op", Sjson.Str "smt2");
           ("script", Sjson.Str cmd);
         ])
  in
  match Io.write_all conn.fd (req ^ "\n") with
  | Error Io.Peer_closed -> Transport "connection closed"
  | Error (Io.Write_error m) -> Transport ("write: " ^ m)
  | Ok () -> (
    Io.touch conn.rdr;
    match Io.read_line conn.rdr with
    | Io.Line l -> parse_reply id l
    | Io.Eof | Io.Stopped -> Transport "connection closed"
    | Io.Idle_timeout | Io.Read_deadline -> Transport "request timed out"
    | Io.Frame_too_large -> Transport "oversized reply"
    | Io.Io_error m -> Transport ("read: " ^ m))

(* Re-establish the server session on a fresh connection.  The whole
   journal goes out as one request (its replies are not transcript), so
   a reconnect puts one frame each way on the network, however long the
   session: under faults that strike frame by frame, a long journal
   replayed command by command would rarely get through whole.  A
   transport fault mid-replay abandons the connection (the caller backs
   off and tries again from scratch); admission rejections retry in
   place. *)
let replay t conn =
  match replay_list t with
  | [] -> Ok conn
  | cmds ->
    let script = String.concat "\n" cmds in
    let rec send attempt =
      match roundtrip t conn script with
      | Replies _ ->
        t.n_replayed <- t.n_replayed + List.length cmds;
        Ok conn
      | Rejected reason ->
        if attempt >= t.cfg.max_attempts then Error ("replay rejected: " ^ reason)
        else begin
          Unix.sleepf (backoff_s t.cfg ~rng:t.rng ~attempt);
          send (attempt + 1)
        end
      | Transport reason -> Error ("replay: " ^ reason)
    in
    send 1

let ensure_conn t =
  match t.conn with
  | Some c -> Ok c
  | None -> (
    match dial t with
    | Error _ as e -> e
    | Ok fd ->
      let conn = { fd; rdr = Io.reader ~limits:(reader_limits t.cfg) fd } in
      t.conn <- Some conn;
      if t.connected_once then t.n_reconnects <- t.n_reconnects + 1;
      t.connected_once <- true;
      (match replay t conn with
      | Ok _ -> Ok conn
      | Error _ as e ->
        drop_conn t;
        e))

(* ------------------------------------------------------------------ *)
(* API                                                                 *)
(* ------------------------------------------------------------------ *)

let connect ?(config = default_config) ~path () =
  let t =
    {
      path;
      cfg = config;
      rng = Random.State.make [| config.seed; 0x636c6e74 |];
      conn = None;
      next_id = 1;
      frames = [ [] ];
      n_retries = 0;
      n_reconnects = 0;
      n_replayed = 0;
      connected_once = false;
      closed = false;
    }
  in
  match ensure_conn t with Ok _ -> Ok t | Error e -> Error e

let command t cmd =
  if t.closed then Error "client closed"
  else begin
    let eff = effect_of t.cfg cmd in
    let rec attempt k =
      let retry reason =
        if k >= t.cfg.max_attempts then Error reason
        else begin
          t.n_retries <- t.n_retries + 1;
          Unix.sleepf (backoff_s t.cfg ~rng:t.rng ~attempt:k);
          attempt (k + 1)
        end
      in
      match ensure_conn t with
      | Error e -> retry e
      | Ok conn -> (
        match roundtrip t conn cmd with
        | Replies replies ->
          apply_effect t cmd eff replies;
          Ok replies
        | Rejected reason -> retry ("rejected: " ^ reason)
        | Transport reason ->
          drop_conn t;
          retry reason)
    in
    attempt 1
  end

let run_script t script =
  let forms, _rest = Smt2.split_complete script in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | f :: tl ->
      if t.closed then Ok (List.rev acc)
      else (
        match command t f with
        | Error _ as e -> e
        | Ok rs -> go (List.rev_append rs acc) tl)
  in
  go [] forms

let close t =
  drop_conn t;
  t.closed <- true
