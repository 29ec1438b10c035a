(* Telemetry: clock monotonicity, span nesting and aggregation, counter
   semantics, the JSONL trace schema, and the on/off equivalence the
   engine promises (observation only — never a different answer). *)

module T = Absolver_telemetry.Telemetry
module A = Absolver_core

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ---- clock ---- *)

let test_clock_monotone () =
  let prev = ref (T.Clock.now ()) in
  for _ = 1 to 10_000 do
    let t = T.Clock.now () in
    if t < !prev then Alcotest.failf "clock went backwards: %f < %f" t !prev;
    prev := t
  done

let test_clock_advances () =
  let t0 = T.Clock.now () in
  (* burn a little real time *)
  let s = ref 0 in
  for i = 1 to 1_000_000 do
    s := !s + i
  done;
  ignore (Sys.opaque_identity !s);
  check bool_t "now() eventually advances" true (T.Clock.now () >= t0)

(* ---- disabled handle ---- *)

let test_disabled_noops () =
  let tel = T.disabled in
  check bool_t "disabled is not enabled" false (T.enabled tel);
  let r = T.span tel "anything" (fun () -> 42) in
  check int_t "span passes the result through" 42 r;
  T.add tel "c" 5;
  T.set_gauge tel "g" 1.0;
  T.event tel "e";
  check int_t "counter reads 0" 0 (T.counter tel "c");
  check int_t "no counters" 0 (List.length (T.counters tel));
  check int_t "no gauges" 0 (List.length (T.gauges tel));
  check int_t "no span aggregates" 0 (List.length (T.span_aggregates tel));
  T.close tel

(* ---- spans, counters, gauges ---- *)

let test_counters_monotone () =
  let tel = T.create () in
  T.add tel "work" 3;
  T.add tel "work" 2;
  T.add tel "work" (-7);
  (* ignored: monotone *)
  T.add tel "work" 0;
  (* ignored *)
  check int_t "total" 5 (T.counter tel "work");
  check int_t "unknown counter" 0 (T.counter tel "nope");
  T.set_gauge tel "depth" 3.0;
  T.set_gauge tel "depth" 1.5;
  (match T.gauges tel with
  | [ ("depth", v) ] -> check bool_t "gauge keeps last" true (v = 1.5)
  | other -> Alcotest.failf "unexpected gauges (%d)" (List.length other));
  T.close tel

let test_span_aggregation () =
  let tel = T.create () in
  for _ = 1 to 3 do
    T.span tel "outer" (fun () -> T.span tel "inner" (fun () -> ()))
  done;
  T.span tel "inner" (fun () -> ());
  T.close tel;
  let agg name =
    match List.assoc_opt name (T.span_aggregates tel) with
    | Some a -> a
    | None -> Alcotest.failf "span %s not aggregated" name
  in
  check int_t "outer calls" 3 (agg "outer").T.agg_calls;
  check int_t "inner calls" 4 (agg "inner").T.agg_calls;
  let o = agg "outer" in
  check bool_t "total >= 0" true (o.T.agg_total_s >= 0.0);
  check bool_t "max <= total" true (o.T.agg_max_s <= o.T.agg_total_s +. 1e-9)

let test_span_exception_safe () =
  let tel = T.create () in
  (try T.span tel "boom" (fun () -> failwith "kaput") with Failure _ -> ());
  let r = T.span tel "after" (fun () -> "ok") in
  check string_t "usable after exception" "ok" r;
  T.close tel;
  check int_t "raising span still recorded" 1
    (match List.assoc_opt "boom" (T.span_aggregates tel) with
    | Some a -> a.T.agg_calls
    | None -> 0);
  check int_t "after span at top level again" 1
    (match List.assoc_opt "after" (T.span_aggregates tel) with
    | Some a -> a.T.agg_calls
    | None -> 0)

let test_manual_spans_nest () =
  let tel = T.create () in
  let a = T.span_open tel "a" in
  let _b = T.span_open tel "b" in
  (* closing [a] also closes the still-open [b]: nesting is structural *)
  T.span_close tel a;
  T.close tel;
  let calls name =
    match List.assoc_opt name (T.span_aggregates tel) with
    | Some a -> a.T.agg_calls
    | None -> 0
  in
  check int_t "a closed" 1 (calls "a");
  check int_t "b auto-closed" 1 (calls "b")

(* ---- JSON helpers ---- *)

let test_json_helpers () =
  check string_t "escape quotes" "a\\\"b" (T.Json.escape "a\"b");
  check string_t "escape newline" "a\\nb" (T.Json.escape "a\nb");
  check string_t "nan clamps to null" "null" (T.Json.of_float Float.nan);
  check string_t "infinity clamps to null" "null"
    (T.Json.of_float Float.infinity);
  check string_t "obj" "{\"a\":1,\"b\":\"x\"}"
    (T.Json.obj [ ("a", "1"); ("b", "\"x\"") ]);
  check string_t "int value" "3" (T.Json.of_value (T.Int 3));
  check string_t "bool value" "true" (T.Json.of_value (T.Bool true))

(* ---- trace schema ---- *)

let fig2_text =
  {|p cnf 3 3
1 0
-2 3 0
3 0
c def int 1 i >= 0
c def int 1 j >= 0
c def int 2 2*i + j < 10
c def int 3 i + j < 5
|}

let parse text =
  match A.Dimacs_ext.parse_string text with
  | Ok p -> p
  | Error e -> failwith e

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_trace_schema () =
  let path = Filename.temp_file "absolver_trace" ".jsonl" in
  let oc = open_out path in
  let tel = T.create ~trace:oc () in
  let options = { A.Engine.default_options with A.Engine.telemetry = tel } in
  let result, _stats = A.Engine.solve ~options (parse fig2_text) in
  (match result with
  | A.Engine.R_sat _ -> ()
  | _ -> Alcotest.fail "fig2 fragment should be sat");
  T.close tel;
  close_out oc;
  let lines = read_lines path in
  Sys.remove path;
  check bool_t "trace nonempty" true (List.length lines > 3);
  (* every line is one JSON object with a type tag *)
  List.iter
    (fun line ->
      let n = String.length line in
      if n < 2 || line.[0] <> '{' || line.[n - 1] <> '}' then
        Alcotest.failf "not a JSON object line: %s" line;
      let has fragment =
        let fl = String.length fragment in
        let rec at i =
          i + fl <= n && (String.sub line i fl = fragment || at (i + 1))
        in
        at 0
      in
      if not (has "\"type\":\"") then Alcotest.failf "missing type: %s" line)
    lines;
  let starts_with prefix line =
    String.length line >= String.length prefix
    && String.sub line 0 (String.length prefix) = prefix
  in
  (match lines with
  | first :: _ ->
    check bool_t "first line is the meta object" true
      (starts_with "{\"type\":\"meta\",\"format\":\"absolver-trace\"" first)
  | [] -> Alcotest.fail "empty trace");
  let contains fragment line =
    let n = String.length line and fl = String.length fragment in
    let rec at i = i + fl <= n && (String.sub line i fl = fragment || at (i + 1)) in
    at 0
  in
  let spans = List.filter (contains "\"type\":\"span\"") lines in
  check bool_t "has span lines" true (spans <> []);
  List.iter
    (fun s ->
      List.iter
        (fun key ->
          if not (contains key s) then Alcotest.failf "span missing %s: %s" key s)
        [ "\"id\":"; "\"parent\":"; "\"name\":\""; "\"start\":"; "\"dur\":" ])
    spans;
  let span_named name = List.exists (contains ("\"name\":\"" ^ name ^ "\"")) spans in
  check bool_t "solve root span" true (span_named "solve");
  check bool_t "presolve span" true (span_named "presolve");
  check bool_t "bool_model span" true (span_named "bool_model");
  check bool_t "linear_check span" true (span_named "linear_check");
  (* the root solve span has parent 0 (no parent) and children point at it *)
  check bool_t "some span nests under another" true
    (List.exists (fun s -> not (contains "\"parent\":0" s)) spans);
  (* final counter totals are emitted on close, one line per counter *)
  check bool_t "counter totals at close" true
    (List.exists (contains "\"type\":\"counter\"") lines)

(* ---- on/off equivalence ---- *)

let nonlinear_text =
  {|p cnf 1 1
1 0
c def real 1 x * x + y * y <= 1
c def real 1 x * y >= 2
c bound x -10 10
c bound y -10 10
|}

let unsat_text = {|p cnf 2 2
1 0
2 0
c def real 1 u <= 1
c def real 2 u >= 2
|}

let multi_text = {|p cnf 2 1
1 2 0
c def real 1 u <= 1
c def real 2 u >= 2
|}

let verdict = function
  | A.Engine.R_sat _ -> "sat"
  | A.Engine.R_unsat -> "unsat"
  | A.Engine.R_unknown _ -> "unknown"

let structural = A.Engine.counters

(* Every run-stats counter equals the same-named counter of the run's
   own (fresh) telemetry handle. *)
let check_agreement name tel st =
  List.iter
    (fun (counter, n) ->
      check int_t (name ^ ": " ^ counter) n (T.counter tel counter))
    (A.Engine.counters st)

let test_on_off_equivalence () =
  List.iter
    (fun (name, text) ->
      let solve tel =
        let options = { A.Engine.default_options with A.Engine.telemetry = tel } in
        A.Engine.solve ~options (parse text)
      in
      let r_off, st_off = solve T.disabled in
      let tel = T.create () in
      let r_on, st_on = solve tel in
      T.close tel;
      check_agreement name tel st_on;
      check string_t (name ^ ": same verdict") (verdict r_off) (verdict r_on);
      check bool_t
        (name ^ ": same structural stats")
        true
        (structural st_off = structural st_on))
    [
      ("fig2", fig2_text);
      ("nonlinear_unsat", nonlinear_text);
      ("unsat", unsat_text);
      ("multi", multi_text);
    ]

let test_all_models_equivalence () =
  let solve tel =
    let options = { A.Engine.default_options with A.Engine.telemetry = tel } in
    match A.Engine.all_models ~options (parse multi_text) with
    | Ok (models, st) -> (List.length models, st)
    | Error e -> failwith e
  in
  let n_off, st_off = solve T.disabled in
  let tel = T.create () in
  let n_on, st_on = solve tel in
  T.close tel;
  check_agreement "all_models" tel st_on;
  check bool_t "all_models identical with telemetry on" true
    ((n_off, structural st_off) = (n_on, structural st_on))

(* A tiny solve's allocation is counted exactly, not only up to the last
   minor collection. *)
let test_tiny_solve_alloc () =
  let _, st = A.Engine.solve (parse unsat_text) in
  check bool_t "minor words counted" true (st.A.Engine.alloc_minor_words > 0.)

(* ---- histograms ---- *)

let test_hist_basic () =
  let tel = T.create () in
  List.iter (T.observe tel "lat") [ 1.0; 2.0; 4.0; 8.0; 100.0 ];
  let h =
    match T.histogram tel "lat" with
    | Some h -> h
    | None -> Alcotest.fail "histogram missing"
  in
  check int_t "count" 5 h.T.h_count;
  check bool_t "sum" true (Float.abs (h.T.h_sum -. 115.0) < 1e-9);
  check bool_t "min" true (h.T.h_min = 1.0);
  check bool_t "max" true (h.T.h_max = 100.0);
  check bool_t "unknown name" true (T.histogram tel "nope" = None);
  T.close tel

let test_hist_bucket_boundaries () =
  (* every bucket bound is an exact power of γ, and each sample lands in
     the bucket whose range (ub/γ, ub] contains it *)
  let tel = T.create () in
  let samples = [ 0.0013; 0.7; 1.0; 1.0000001; 3.5; 1234.5; -2.0; 0.0 ] in
  List.iter (T.observe tel "x") samples;
  let h = Option.get (T.histogram tel "x") in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 h.T.h_buckets in
  check int_t "bucket counts sum to count" h.T.h_count total;
  List.iter
    (fun (ub, _) ->
      if ub > 0.0 then begin
        let i = Float.round (Float.log ub /. Float.log T.hist_gamma) in
        let back = Float.pow T.hist_gamma i in
        if Float.abs (back -. ub) > 1e-9 *. ub then
          Alcotest.failf "bucket bound %.17g is not a power of gamma" ub
      end)
    h.T.h_buckets;
  List.iter
    (fun v ->
      let covering =
        List.filter
          (fun (ub, _) ->
            if v <= 0.0 then ub = 0.0 else v <= ub && v > ub /. T.hist_gamma)
          h.T.h_buckets
      in
      check int_t
        (Printf.sprintf "exactly one bucket covers %g" v)
        1 (List.length covering))
    samples;
  (* cumulative counts are monotone and end at the total *)
  let cum = T.hist_cumulative h in
  let rec mono = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  check bool_t "cumulative monotone" true (mono cum);
  (match List.rev cum with
  | (_, last) :: _ -> check int_t "cumulative ends at count" h.T.h_count last
  | [] -> Alcotest.fail "empty cumulative");
  T.close tel

let test_hist_quantile_bounds () =
  (* nearest-rank estimate stays within a √γ factor of the exact
     percentile, and within [min,max], for a deterministic LCG stream *)
  let n = 2000 in
  let seed = ref 12345 in
  let next () =
    seed := ((!seed * 1103515245) + 12321) land 0x3FFFFFFF;
    float_of_int (1 + (!seed mod 100000)) /. 7.0
  in
  let tel = T.create () in
  let values = Array.init n (fun _ -> next ()) in
  Array.iter (T.observe tel "v") values;
  let h = Option.get (T.histogram tel "v") in
  Array.sort compare values;
  let tol = sqrt T.hist_gamma *. 1.0001 in
  List.iter
    (fun q ->
      let est = T.hist_quantile h q in
      let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
      let exact = values.(rank - 1) in
      check bool_t
        (Printf.sprintf "q%.2f within range" q)
        true
        (est >= h.T.h_min && est <= h.T.h_max);
      if est > exact *. tol || est < exact /. tol then
        Alcotest.failf "q%.2f estimate %g too far from exact %g" q est exact)
    [ 0.01; 0.25; 0.50; 0.90; 0.95; 0.99; 1.0 ];
  T.close tel

let hist_as_list tel name =
  match T.histogram tel name with
  | Some h -> (h.T.h_count, h.T.h_sum, h.T.h_min, h.T.h_max, h.T.h_buckets)
  | None -> Alcotest.fail ("no histogram " ^ name)

let test_hist_merge_associative () =
  let mk samples =
    let tel = T.create () in
    List.iter (T.observe tel "m") samples;
    tel
  in
  let a () = mk [ 0.5; 1.0; 2.0 ]
  and b () = mk [ 2.0; 64.0; -1.0 ]
  and c () = mk [ 0.001; 3.14159; 1e6 ] in
  (* (a ⊕ b) ⊕ c versus a ⊕ (b ⊕ c), both into a fresh destination *)
  let left =
    let ab = a () in
    T.merge ab (b ());
    T.merge ab (c ());
    hist_as_list ab "m"
  in
  let right =
    let bc = b () in
    T.merge bc (c ());
    let abc = a () in
    T.merge abc bc;
    hist_as_list abc "m"
  in
  check bool_t "merge associative (bucket-exact)" true (left = right);
  let count, sum, mn, mx, _ = left in
  check int_t "merged count" 9 count;
  check bool_t "merged sum" true (Float.abs (sum -. 1000071.64259) < 1e-4);
  check bool_t "merged min" true (mn = -1.0);
  check bool_t "merged max" true (mx = 1e6)

let test_merge_preserves_trace_id () =
  let dst = T.create () in
  let src = T.create () in
  T.set_trace_id src "deadbeef00000001";
  T.observe src "q" 5.0;
  T.merge dst src;
  check bool_t "trace id carried" true
    (T.trace_id dst = Some "deadbeef00000001");
  let h = Option.get (T.histogram dst "q") in
  check int_t "histogram carried" 1 h.T.h_count;
  (* an already-set destination id wins over later merges *)
  let src2 = T.create () in
  T.set_trace_id src2 "feedface00000002";
  T.merge dst src2;
  check bool_t "existing id kept" true
    (T.trace_id dst = Some "deadbeef00000001")

(* ---- fork / trace context ---- *)

module TT = Absolver_tracetool.Tracetool

let with_trace f =
  let path = Filename.temp_file "absolver_tt" ".jsonl" in
  let oc = open_out path in
  let tel = T.create ~trace:oc () in
  f tel;
  close_out oc;
  let t =
    match TT.load path with
    | Ok t -> t
    | Error e -> Alcotest.failf "trace load: %s" e
  in
  Sys.remove path;
  t

let test_fork_parent_links () =
  let t =
    with_trace (fun tel ->
        T.set_trace_id tel (T.mint_trace_id ());
        let root = T.span_open tel "root" in
        let parent = T.current_span tel in
        check int_t "current_span is the open span" root parent;
        (* one fork per "worker", as the pool does *)
        let workers = List.init 3 (fun _ -> T.fork ~parent tel) in
        List.iter (fun w -> T.span w "work" (fun () -> ())) workers;
        List.iter (fun w -> T.merge tel w) workers;
        T.span_close tel root;
        T.close tel)
  in
  check int_t "no unresolved parents" 0 (List.length (TT.unresolved t));
  (match TT.roots t with
  | [ r ] ->
    check string_t "single root" "root" r.TT.sp_name;
    check int_t "three children" 3 (List.length (TT.children t r.TT.sp_id));
    List.iter
      (fun c -> check string_t "child name" "work" c.TT.sp_name)
      (TT.children t r.TT.sp_id)
  | other -> Alcotest.failf "expected one root, got %d" (List.length other));
  (* every span carries the minted trace id *)
  check int_t "one trace id" 1 (List.length (TT.trace_ids t));
  List.iter
    (fun sp ->
      check bool_t "span tagged" true (sp.TT.sp_trace <> None))
    (TT.spans t)

let test_abandoned_children_marked () =
  let t =
    with_trace (fun tel ->
        let a = T.span_open tel "a" in
        let _b = T.span_open tel "b" in
        T.span_close tel a;
        let _c = T.span_open tel "c" in
        T.close tel)
  in
  let by_name n =
    match List.find_opt (fun sp -> sp.TT.sp_name = n) (TT.spans t) with
    | Some sp -> sp
    | None -> Alcotest.failf "span %s missing" n
  in
  check bool_t "b force-closed" true (by_name "b").TT.sp_abandoned;
  check bool_t "c force-closed at close" true (by_name "c").TT.sp_abandoned;
  check bool_t "a closed normally" false (by_name "a").TT.sp_abandoned

let test_jobs4_trace_single_tree () =
  (* the acceptance test of the tracing tentpole: a parallel (--jobs 4)
     branch-and-prune run writes one connected span tree — every span's
     parent resolves across the executor/pool domain hand-offs *)
  let registry =
    {
      A.Registry.default with
      A.Registry.nonlinear = [ A.Registry.branch_prune_solver ~jobs:4 () ];
    }
  in
  let t =
    with_trace (fun tel ->
        let options =
          { A.Engine.default_options with A.Engine.telemetry = tel }
        in
        let result, _ = A.Engine.solve ~registry ~options (parse nonlinear_text) in
        (match result with
        | A.Engine.R_unsat -> ()
        | _ -> Alcotest.fail "nonlinear fragment should be unsat");
        T.close tel)
  in
  check bool_t "has spans" true (TT.spans t <> []);
  check int_t "no unresolved parents" 0 (List.length (TT.unresolved t));
  (match TT.roots t with
  | [ r ] -> check string_t "single solve root" "solve" r.TT.sp_name
  | other -> Alcotest.failf "expected one root, got %d" (List.length other));
  check bool_t "worker spans present" true
    (List.exists (fun sp -> sp.TT.sp_name = "pool.worker") (TT.spans t))

(* Work counters are per solve: a domain solving a problem repeatedly
   counts the same work whether it runs alone or beside another domain,
   and its telemetry handle agrees with its run stats. A Fischer
   unrolling exercises the simplex, nonlinear problems branch-and-prune
   (the univariate equality makes interval Newton step). *)
let test_concurrent_node_counts () =
  let fischer =
    match Absolver_smtlib.Fischer.problem ~n:3 () with
    | Ok p -> p
    | Error e -> failwith e
  in
  let sphere_cap =
    parse
      {|p cnf 1 1
1 0
c def real 1 x * x + y * y + z * z <= 1
c def real 1 x + y + z >= 2
c bound x -2 2
c bound y -2 2
c bound z -2 2
|}
  in
  let sqrt2 =
    parse
      {|p cnf 1 1
1 0
c def real 1 x * x = 2
c bound x -3 3
|}
  in
  let names =
    [ "lp.pivots"; "nlp.nodes"; "nlp.hc4_revisions"; "nlp.newton_steps" ]
  in
  (* Solve each problem 20 times into one fresh handle, once [ready]
     reaches 2; returns each counter's telemetry total and run-stats sum. *)
  let worker ready problems () =
    let tel = T.create () in
    let options = { A.Engine.default_options with A.Engine.telemetry = tel } in
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let own = Hashtbl.create 4 in
    for _ = 1 to 20 do
      List.iter
        (fun p ->
          let _, st = A.Engine.solve ~options p in
          List.iter
            (fun n ->
              Hashtbl.replace own n
                (A.Engine.counter st n
                + Option.value ~default:0 (Hashtbl.find_opt own n)))
            names)
        problems
    done;
    List.map (fun n -> (n, (T.counter tel n, Hashtbl.find own n))) names
  in
  let alone problems = worker (Atomic.make 1) problems () in
  let linear = [ fischer ] and nonlinear = [ sphere_cap; sqrt2 ] in
  let linear_alone = alone linear and nonlinear_alone = alone nonlinear in
  let ready = Atomic.make 0 in
  let d1 = Domain.spawn (worker ready linear) in
  let d2 = Domain.spawn (worker ready nonlinear) in
  let linear_both = Domain.join d1 and nonlinear_both = Domain.join d2 in
  List.iter
    (fun (what, solo, both) ->
      List.iter2
        (fun (n, (tel_solo, own_solo)) (_, (tel_both, own_both)) ->
          check int_t (what ^ " alone: telemetry = run stats, " ^ n) own_solo
            tel_solo;
          check int_t (what ^ " concurrent: telemetry = run stats, " ^ n)
            own_both tel_both;
          check int_t (what ^ ": concurrent = alone, " ^ n) tel_solo tel_both)
        solo both)
    [
      ("fischer", linear_alone, linear_both);
      ("nonlinear", nonlinear_alone, nonlinear_both);
    ];
  let total counts n = fst (List.assoc n counts) in
  check bool_t "fischer pivots" true (total linear_alone "lp.pivots" > 0);
  List.iter
    (fun n -> check bool_t ("nonlinear " ^ n) true (total nonlinear_alone n > 0))
    names

let suite =
  [
    Alcotest.test_case "clock is monotone" `Quick test_clock_monotone;
    Alcotest.test_case "clock advances" `Quick test_clock_advances;
    Alcotest.test_case "disabled handle is a no-op" `Quick test_disabled_noops;
    Alcotest.test_case "counters are monotone" `Quick test_counters_monotone;
    Alcotest.test_case "spans aggregate per name" `Quick test_span_aggregation;
    Alcotest.test_case "spans survive exceptions" `Quick test_span_exception_safe;
    Alcotest.test_case "manual spans close nested" `Quick test_manual_spans_nest;
    Alcotest.test_case "json helpers" `Quick test_json_helpers;
    Alcotest.test_case "JSONL trace schema" `Quick test_trace_schema;
    Alcotest.test_case "solve: telemetry on/off equivalence" `Quick
      test_on_off_equivalence;
    Alcotest.test_case "all_models: telemetry on/off equivalence" `Quick
      test_all_models_equivalence;
    Alcotest.test_case "tiny solve counts its allocation" `Quick
      test_tiny_solve_alloc;
    Alcotest.test_case "histogram basics" `Quick test_hist_basic;
    Alcotest.test_case "histogram bucket boundaries" `Quick
      test_hist_bucket_boundaries;
    Alcotest.test_case "histogram quantile bounds" `Quick
      test_hist_quantile_bounds;
    Alcotest.test_case "histogram merge is associative" `Quick
      test_hist_merge_associative;
    Alcotest.test_case "merge preserves trace id" `Quick
      test_merge_preserves_trace_id;
    Alcotest.test_case "fork stitches parent links" `Quick
      test_fork_parent_links;
    Alcotest.test_case "abandoned spans are marked" `Quick
      test_abandoned_children_marked;
    Alcotest.test_case "jobs=4 trace is one connected tree" `Quick
      test_jobs4_trace_single_tree;
    Alcotest.test_case "concurrent solves keep their own node counts" `Quick
      test_concurrent_node_counts;
  ]
