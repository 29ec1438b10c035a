(* BENCHMARK.json is the one list of workloads and metrics: a run prints
   exactly the metrics it names, with its units, and [compare] applies
   its bounds. *)

module Sjson = Absolver_server.Sjson

type metric = {
  name : string;
  unit_ : string;
  better : [ `Lower | `Higher ];
  bound : float option;  (** end-to-end metrics only *)
}

type spec = {
  run_seconds : float;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let spec_path = "BENCHMARK.json"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let member path j = List.fold_left (fun j k -> Option.bind j (Sjson.member k)) (Some j) path

let fail fmt = Printf.ksprintf failwith fmt

let list_of = function Some (Sjson.Arr xs) -> xs | _ -> []

let load_spec () =
  let j =
    match Sjson.parse (read_file spec_path) with
    | Ok j -> j
    | Error e -> fail "%s: %s" spec_path e
  in
  let str k o = match Option.bind (Sjson.member k o) Sjson.get_string with
    | Some s -> s
    | None -> fail "%s: missing %S" spec_path k
  in
  let metric o =
    {
      name = str "name" o;
      unit_ = str "unit" o;
      better = (match str "better" o with "higher" -> `Higher | _ -> `Lower);
      bound = (match Sjson.member "bound" o with Some (Sjson.Num b) -> Some b | _ -> None);
    }
  in
  {
    run_seconds =
      (match member [ "run_seconds" ] j with
      | Some (Sjson.Num s) -> s
      | _ -> fail "%s: missing run_seconds" spec_path);
    workloads = List.map (str "name") (list_of (member [ "workloads" ] j));
    end_to_end = List.map metric (list_of (member [ "end_to_end" ] j));
    per_layer = List.map metric (list_of (member [ "per_layer" ] j));
  }

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* The names a run must report but did not. *)
let missing metrics (names : metric list) =
  List.filter (fun m -> not (List.mem_assoc m.name metrics)) names |> List.map (fun m -> m.name)

(* The human-readable lines, then the result object as the last line. *)
let print ~workload ~(selected : metric list) (r : Measure.result) =
  (match missing r.Measure.metrics selected with
  | [] -> ()
  | names -> fail "%s: no value for %s" workload (String.concat ", " names));
  let t = r.Measure.tally in
  List.iter
    (fun (name, why) -> Printf.printf "%s WRONG %s: %s\n" workload name why)
    (List.rev t.Measure.wrong);
  List.iter
    (fun (name, why) -> Printf.printf "%s undecided %s: %s\n" workload name why)
    (List.rev t.Measure.undecided);
  let value m = number (List.assoc m.name r.Measure.metrics) in
  List.iter (fun m -> Printf.printf "%s %s %s %s\n" workload m.name (value m) m.unit_) selected;
  let metrics =
    List.map
      (fun m -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (value m) m.unit_)
      selected
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (t.Measure.wrong = []) t.Measure.attempted
    (List.length t.Measure.wrong + List.length t.Measure.undecided)
    (String.concat "," metrics)

(* ------------------------------------------------------------------ *)
(* compare A.json B.json: each workload and end-to-end metric, B (the  *)
(* change) against A (the parent), under the benchmark's bounds.       *)

type runs = (string * (string * float) list) list  (** workload, metric values *)

let load_runs path : runs =
  let j = match Sjson.parse (read_file path) with Ok j -> j | Error e -> fail "%s: %s" path e in
  List.filter_map
    (fun run ->
      let workload = Option.bind (Sjson.member "workload" run) Sjson.get_string in
      match (workload, member [ "result"; "metrics" ] run) with
      | Some w, Some (Sjson.Obj ms) ->
        Some
          ( w,
            List.filter_map
              (fun (k, v) ->
                match Sjson.member "value" v with Some (Sjson.Num f) -> Some (k, f) | _ -> None)
              ms )
      | _ -> None)
    (list_of (member [ "runs" ] j))

let values runs workload metric =
  List.filter_map (fun (w, ms) -> if w = workload then List.assoc_opt metric ms else None) runs

(* How much worse [b] is than [a], as a share of [a]. *)
let worsening better a b =
  let d = Measure.ratio (b -. a) (Float.abs a) in
  match better with `Lower -> d | `Higher -> -.d

let spread xs =
  let q1, m, q3 = Measure.quartiles xs in
  Measure.ratio (q3 -. q1) (Float.abs m)

let better_than better x y = match better with `Lower -> x < y | `Higher -> x > y

let judge (m : metric) a b =
  let bound = Option.value ~default:0.0 m.bound in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better_than m.better y x) a) b in
  if (spread a > bound || spread b > bound) && not all_better then "unresolved"
  else if worsening m.better (Measure.median a) (Measure.median b) > bound then "regressed"
  else "ok"

(* The claim rule: the change wins at least nine tenths of the run pairs
   (ties count for neither) and the medians differ by more than the
   parent's own quartile spread. *)
let claim (m : metric) a b =
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip a b in
  let wins = List.length (List.filter (fun (x, y) -> better_than m.better y x) pairs) in
  let q1, ma, q3 = Measure.quartiles a in
  let met =
    pairs <> []
    && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
    && Float.abs (Measure.median b -. ma) > q3 -. q1
  in
  (wins, List.length pairs, met)

let compare_main ~claims a_path b_path =
  let spec = load_spec () in
  let a = load_runs a_path and b = load_runs b_path in
  let show xs =
    let q1, m, q3 = Measure.quartiles xs in
    Printf.sprintf "%.6g [%.6g, %.6g] n=%d" m q1 q3 (List.length xs)
  in
  let regressed = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let va = values a w m.name and vb = values b w m.name in
          if va <> [] && vb <> [] then begin
            let verdict = judge m va vb in
            if verdict = "regressed" then incr regressed;
            Printf.printf "%-10s %-14s A %-36s B %-36s %+7.2f%% (bound %.0f%%) %s\n" w m.name
              (show va) (show vb)
              (100.0 *. worsening m.better (Measure.median va) (Measure.median vb))
              (100.0 *. Option.value ~default:0.0 m.bound)
              verdict
          end)
        spec.end_to_end)
    spec.workloads;
  List.iter
    (fun c ->
      match String.index_opt c ':' with
      | None -> fail "--claim takes WORKLOAD:METRIC, got %s" c
      | Some i ->
        let w = String.sub c 0 i and name = String.sub c (i + 1) (String.length c - i - 1) in
        let m =
          match List.find_opt (fun m -> m.name = name) (spec.end_to_end @ spec.per_layer) with
          | Some m -> m
          | None -> fail "unknown metric %s" name
        in
        let wins, pairs, met = claim m (values a w name) (values b w name) in
        Printf.printf "claim %s %s: B wins %d of %d pairs, %s\n" w name wins pairs
          (if met then "met" else "not met"))
    claims;
  if !regressed > 0 then exit 1
