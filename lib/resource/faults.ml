exception Injected of string

type action = Trip of Absolver_error.t | Raise

(* The static inventory: one point per solver boundary the engine relies
   on.  Keep DESIGN.md Sec. 10's fault-point table in sync. *)
let known =
  [
    "engine.solve";
    "engine.bool_model";
    "presolve.run";
    "presolve.sat_simplify";
    "presolve.lp";
    "presolve.icp";
    "sat.solve";
    "sat.all_sat";
    "lp.solve_system";
    "nlp.branch_prune";
    "server.lane";
  ]

type armed = { mutable countdown : int; action : action }

let armed_tbl : (string, armed) Hashtbl.t = Hashtbl.create 8
let hit_tbl : (string, int ref) Hashtbl.t = Hashtbl.create 8
let enabled = ref false

let arm ?(after = 1) ~point action =
  if not (List.mem point known) then
    invalid_arg (Printf.sprintf "Faults.arm: unknown fault point %S" point);
  Hashtbl.replace armed_tbl point { countdown = max 1 after; action };
  enabled := true

let disarm_all () =
  Hashtbl.reset armed_tbl;
  Hashtbl.reset hit_tbl;
  enabled := false

let hits point =
  match Hashtbl.find_opt hit_tbl point with Some r -> !r | None -> 0

let hit point budget =
  if !enabled then begin
    (match Hashtbl.find_opt hit_tbl point with
    | Some r -> incr r
    | None -> Hashtbl.add hit_tbl point (ref 1));
    match Hashtbl.find_opt armed_tbl point with
    | None -> ()
    | Some a ->
      a.countdown <- a.countdown - 1;
      if a.countdown <= 0 then begin
        Hashtbl.remove armed_tbl point;
        match a.action with
        | Trip err ->
          Budget.trip budget err;
          raise (Budget.Exhausted err)
        | Raise -> raise (Injected point)
      end
  end

(* ------------------------------------------------------------------ *)
(* Network fault injection                                             *)
(*                                                                     *)
(* A seeded decision oracle for the solve server's read and write      *)
(* paths.  This module only *decides* (tear here, delay that long,     *)
(* drop now) — applying a decision (sleeping, shutting a socket down)  *)
(* is the caller's job, so this library stays free of Unix.  Every     *)
(* decision draws from its own PRNG, seeded by the plan seed, the kind *)
(* of operation and a digest of the frame it concerns.  A frame's      *)
(* bytes are a function of its session alone (the client numbers its  *)
(* requests, retries and replays included), so the same plan injects   *)
(* the same faults into the same session however concurrent            *)
(* connections interleave, and a run's injected totals reproduce.      *)
(* ------------------------------------------------------------------ *)

module Net = struct
  type plan = {
    seed : int;
    tear_write : float;
    delay : float;
    drop : float;
    refuse_accept : float;
    max_delay_ms : float;
  }

  let default_plan =
    {
      seed = 0;
      tear_write = 0.15;
      delay = 0.15;
      drop = 0.05;
      refuse_accept = 0.1;
      max_delay_ms = 5.0;
    }

  type decision = {
    delay_ms : float;  (** sleep this long before the operation *)
    tear_at : int option;  (** split a write at this byte offset *)
    drop : bool;  (** sever the connection instead of completing *)
  }

  let no_decision = { delay_ms = 0.0; tear_at = None; drop = false }

  type state = { plan : plan; mutable counts : (string * int) list }

  let lock = Mutex.create ()
  let state : state option ref = ref None

  let arm ?(plan = default_plan) () =
    Mutex.protect lock (fun () -> state := Some { plan; counts = [] })

  let disarm () = Mutex.protect lock (fun () -> state := None)
  let armed () = Mutex.protect lock (fun () -> !state <> None)

  let count s kind =
    s.counts <-
      (match List.assoc_opt kind s.counts with
      | Some n -> (kind, n + 1) :: List.remove_assoc kind s.counts
      | None -> (kind, 1) :: s.counts)

  let injected () =
    Mutex.protect lock (fun () ->
        match !state with Some s -> s.counts | None -> [])

  (* The decision stream of one operation ([kind]) on one frame. *)
  let stream plan kind frame =
    let d = Digest.string frame in
    Random.State.make
      [|
        plan.seed;
        kind;
        Int64.to_int (String.get_int64_le d 0);
        Int64.to_int (String.get_int64_le d 8);
      |]

  let decide default f =
    Mutex.protect lock (fun () ->
        match !state with None -> default | Some s -> f s)

  let chance st p = p > 0.0 && Random.State.float st 1.0 < p

  let delay_of s st =
    if chance st s.plan.delay then begin
      count s "delay";
      Random.State.float st (Float.max 0.01 s.plan.max_delay_ms)
    end
    else 0.0

  (* Decision for writing [frame]. *)
  let on_write frame =
    decide no_decision (fun s ->
        let st = stream s.plan 0 frame and len = String.length frame in
        let delay_ms = delay_of s st in
        let tear_at =
          if len > 1 && chance st s.plan.tear_write then begin
            count s "tear";
            Some (1 + Random.State.int st (len - 1))
          end
          else None
        in
        let drop =
          if chance st s.plan.drop then begin
            count s "drop_write";
            true
          end
          else false
        in
        { delay_ms; tear_at; drop })

  (* Decision for [frame], just received and not yet handled.  A
     connection's first frame may instead be refused: the connection is
     severed before anything is answered, which its client cannot tell
     from a refused accept. *)
  let on_frame ~first frame =
    decide no_decision (fun s ->
        let st = stream s.plan 1 frame in
        if first && chance st s.plan.refuse_accept then begin
          count s "refuse_accept";
          { no_decision with drop = true }
        end
        else begin
          let delay_ms = delay_of s st in
          let drop =
            if chance st s.plan.drop then begin
              count s "drop_read";
              true
            end
            else false
          in
          { delay_ms; tear_at = None; drop }
        end)
end
