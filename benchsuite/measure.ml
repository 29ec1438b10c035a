(* Timing, order statistics, memory and the tally of checked answers. *)

module Telemetry = Absolver_telemetry.Telemetry

let now = Telemetry.Clock.now

let ratio a b = if b = 0.0 then 0.0 else a /. b

let sorted xs = List.sort Float.compare xs

(* Nearest-rank percentile, [q] in [0,1]. *)
let percentile q xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Quartiles by the "exclusive" method of Python's
   statistics.quantiles(xs, n=4), which the benchmark's acceptance rule
   is stated in; a single value is its own quartiles. *)
let quartiles xs =
  match sorted xs with
  | [] -> (0.0, 0.0, 0.0)
  | [ x ] -> (x, x, x)
  | s ->
    let a = Array.of_list s in
    let ld = Array.length a in
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Peak resident set size (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    Printf.sprintf "/proc/%s/status" (match pid with None -> "self" | Some p -> string_of_int p)
  in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.0)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* Where runs leave their traces, sockets and result files. *)
let out_dir = ".benchsuite"

let out_file name =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
  Filename.concat out_dir name

(* Repeat [f] (which reports its own timed seconds) while the next
   repetition is expected to fit in [budget] seconds; at least once. *)
let repeat ~budget f =
  let t0 = now () in
  let rec go acc last =
    let elapsed = now () -. t0 in
    if acc <> [] && elapsed +. last > budget then List.rev acc
    else
      let t = now () in
      let r = f () in
      go (r :: acc) (now () -. t)
  in
  go [] 0.0

(* Repeat a set-up step at least [setups] times and for at least
   [seconds], so that a set-up of a few milliseconds is still timed over
   many repetitions: the median time and the last result. Each earlier
   result is handed to [discard], untimed, before the next repetition,
   so repeating does not raise the peak memory. *)
let setup ?(discard = ignore) ~setups ~seconds f =
  let t0 = now () and times = ref [] and last = ref None in
  while List.length !times < setups || now () -. t0 < seconds do
    Option.iter discard !last;
    last := None;
    let t = now () in
    let r = f () in
    times := (now () -. t) :: !times;
    last := Some r
  done;
  (median !times, Option.get !last)

type tally = {
  mutable attempted : int;
  mutable decided : int;
  mutable undecided : (string * string) list;
  mutable wrong : (string * string) list;
}

let tally () = { attempted = 0; decided = 0; undecided = []; wrong = [] }

let record t name outcome =
  t.attempted <- t.attempted + 1;
  match outcome with
  | Verify.Decided -> t.decided <- t.decided + 1
  | Verify.Undecided why -> t.undecided <- (name, why) :: t.undecided
  | Verify.Wrong why -> t.wrong <- (name, why) :: t.wrong

(* What one workload run hands back to the reporter. *)
type result = {
  tally : tally;
  metrics : (string * float) list;
  traces : string list;  (** JSONL traces written by a traced run *)
}
