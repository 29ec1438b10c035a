module Clock = Absolver_telemetry.Telemetry.Clock

exception Exhausted of Absolver_error.t

(* Words allocated by this process so far (minor + major, promoted counted
   once).  [Gc.allocated_bytes] is a few loads — cheap enough for the slow
   path of [tick]. *)
let words_now () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* The shared half of a budget: cancellation and the sticky trip reason
   live in atomics so any domain may cancel/trip while others poll.  Cells
   form a tree through [parent]: a child polls its ancestors too, so
   cancelling a parent reaches every child at its next poll, while a
   child's own trip (say, one request's deadline) stays invisible to the
   parent. *)
type cell = {
  cancelled : bool Atomic.t;
  trip_reason : Absolver_error.t option Atomic.t;
  parent : cell option;
}

let mk_cell ?parent () =
  { cancelled = Atomic.make false; trip_reason = Atomic.make None; parent }

type state = {
  cell : cell;
  deadline : float option; (* absolute, on the monotonic telemetry clock *)
  max_steps : int;
  max_words : float;
  words0 : float;
  mutable charged : int; (* explicitly metered words, on top of the GC's *)
  mutable steps : int;
}

type t = Unlimited | Limited of state

let unlimited = Unlimited

let create ?deadline_seconds ?max_steps ?max_words () =
  Limited
    {
      cell = mk_cell ();
      deadline = Option.map (fun d -> Clock.now () +. d) deadline_seconds;
      max_steps = Option.value ~default:max_int max_steps;
      max_words =
        (match max_words with Some w -> float_of_int w | None -> infinity);
      words0 = words_now ();
      charged = 0;
      steps = 0;
    }

(* A request budget sliced out of a long-lived parent (the solve server's
   per-request budgets): its own, possibly tighter, limits plus a cell
   linked to the parent's so shutting the parent down cancels every
   outstanding request at its next poll.  The effective deadline is the
   tighter of the parent's and the child's own. *)
let child t ?deadline_seconds ?max_steps ?max_words () =
  let own_deadline = Option.map (fun d -> Clock.now () +. d) deadline_seconds in
  let parent_cell, parent_deadline =
    match t with
    | Unlimited -> (None, None)
    | Limited s -> (Some s.cell, s.deadline)
  in
  let deadline =
    match (own_deadline, parent_deadline) with
    | Some a, Some b -> Some (Float.min a b)
    | (Some _ as d), None | None, (Some _ as d) -> d
    | None, None -> None
  in
  Limited
    {
      cell = mk_cell ?parent:parent_cell ();
      deadline;
      max_steps = Option.value ~default:max_int max_steps;
      max_words =
        (match max_words with Some w -> float_of_int w | None -> infinity);
      words0 = words_now ();
      charged = 0;
      steps = 0;
    }

let is_unlimited = function Unlimited -> true | Limited _ -> false

let cancel = function
  | Unlimited -> ()
  | Limited s -> Atomic.set s.cell.cancelled true

(* First trip wins, even when several domains race to report. *)
let trip_cell c err =
  ignore (Atomic.compare_and_set c.trip_reason None (Some err))

let trip t err =
  match t with Unlimited -> () | Limited s -> trip_cell s.cell err

let tripped = function
  | Unlimited -> None
  | Limited s -> Atomic.get s.cell.trip_reason

let steps = function Unlimited -> 0 | Limited s -> s.steps

let remaining_seconds = function
  | Unlimited -> None
  | Limited s ->
    Option.map (fun d -> Float.max 0.0 (d -. Clock.now ())) s.deadline

(* Cancellation or a trip anywhere up the cell chain exhausts this budget;
   the ancestor's typed reason is inherited so a child cut short by the
   parent's timeout still reports Timeout, not a generic Cancelled. *)
let rec inherited_verdict c =
  match Atomic.get c.trip_reason with
  | Some _ as r -> r
  | None ->
    if Atomic.get c.cancelled then Some Absolver_error.Cancelled
    else ( match c.parent with None -> None | Some p -> inherited_verdict p)

(* The expensive part of a poll: clock and allocation reads.  Kept out of
   the per-tick fast path — [tick] runs it every [interval] steps. *)
let slow_check s =
  match Atomic.get s.cell.trip_reason with
  | Some _ as r -> r
  | None ->
    let verdict =
      match inherited_verdict s.cell with
      | Some _ as r -> r
      | None ->
        if match s.deadline with Some d -> Clock.now () > d | None -> false
        then Some Absolver_error.Timeout
        else if
          Float.is_finite s.max_words
          && words_now () -. s.words0 +. float_of_int s.charged > s.max_words
        then Some (Absolver_error.Out_of_budget Absolver_error.Memory)
        else None
    in
    (match verdict with Some e -> trip_cell s.cell e | None -> ());
    Atomic.get s.cell.trip_reason

let check = function
  | Unlimited -> None
  | Limited s ->
    if s.steps > s.max_steps then
      trip_cell s.cell (Absolver_error.Out_of_budget Absolver_error.Steps);
    slow_check s

(* Full polls every [interval] ticks: hot loops pay an int increment, a
   compare and a mask almost always. *)
let interval_mask = 0xFF

let tick = function
  | Unlimited -> ()
  | Limited s ->
    s.steps <- s.steps + 1;
    if s.steps > s.max_steps then begin
      trip_cell s.cell (Absolver_error.Out_of_budget Absolver_error.Steps);
      raise (Exhausted (Option.get (Atomic.get s.cell.trip_reason)))
    end
    else if s.steps land interval_mask = 0 then begin
      match slow_check s with None -> () | Some e -> raise (Exhausted e)
    end

let charge t n =
  match t with
  | Unlimited -> ()
  | Limited s -> (
    s.charged <- s.charged + n;
    if Float.is_finite s.max_words then
      match slow_check s with None -> () | Some e -> raise (Exhausted e))

let check_exn t =
  match check t with None -> () | Some e -> raise (Exhausted e)

let guard t f =
  match f () with
  | v -> Ok v
  | exception Exhausted e -> Error e
  | exception e ->
    (* A stray exception must not cross the boundary either; record it so
       the caller's sticky reason survives. *)
    let err = Absolver_error.Internal (Printexc.to_string e) in
    trip t err;
    Error err
