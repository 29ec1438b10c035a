(* See telemetry.mli for the contract. The design constraints driving the
   shape of this file: a [disabled] handle must make every operation a
   single match on an immutable constructor, so instrumentation can stay
   in place permanently; and span ids come from one process-wide counter,
   so handles [fork]ed across domains write into one trace without id
   collisions and stitch back together through parent links alone. *)

module Clock = struct
  (* Monotonized wall clock: remember the largest reading handed out (in
     an atomic, so every domain shares one monotone timeline) and never
     hand out anything smaller.  A backward wall-clock jump freezes the
     clock at the high-water mark until real time passes it again. *)
  let start = Unix.gettimeofday ()
  let last = Atomic.make 0.0

  let rec now () =
    let w = Unix.gettimeofday () -. start in
    let l = Atomic.get last in
    if w <= l then l
    else if Atomic.compare_and_set last l w then w
    else now ()

  let wall = Unix.gettimeofday
end

type value = Int of int | Float of float | String of string | Bool of bool

module Json = struct
  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let of_float f =
    if Float.is_finite f then Printf.sprintf "%.9g" f else "null"

  let of_value = function
    | Int i -> string_of_int i
    | Float f -> of_float f
    | String s -> Printf.sprintf "\"%s\"" (escape s)
    | Bool b -> if b then "true" else "false"

  let obj fields =
    "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) v) fields) ^ "}"
end

type span_agg = { agg_calls : int; agg_total_s : float; agg_max_s : float }

(* ---- histograms ----

   Sparse log-bucketed: bucket [i] covers (γ^(i-1), γ^i] with γ = 2^(1/4),
   so four buckets per octave and a worst-case quantile error of √γ ≈ 9%.
   Non-positive samples get a dedicated bucket (key [min_int], reported
   with upper bound 0).  Bucket counts merge exactly, which is the whole
   point: per-request histograms fold into a long-running
   aggregate without the bias a bounded sample window would introduce. *)

let hist_gamma = Float.pow 2.0 0.25
let log_gamma = Float.log hist_gamma
let nonpos_bucket = min_int

let bucket_of v =
  if v <= 0.0 then nonpos_bucket
  else int_of_float (Float.ceil (Float.log v /. log_gamma))

let bucket_bound i =
  if i = nonpos_bucket then 0.0 else Float.pow hist_gamma (float_of_int i)

(* Recover a bucket index from its reported upper bound.  Bounds are
   exactly γ^i for integer i, so rounding (not [ceil], which would drift
   up on a positive float error) round-trips them. *)
let bucket_of_bound ub =
  if ub <= 0.0 then nonpos_bucket
  else int_of_float (Float.round (Float.log ub /. log_gamma))

type hist = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (float * int) list;
}

type hist_cell = {
  mutable hc_count : int;
  mutable hc_sum : float;
  mutable hc_min : float;
  mutable hc_max : float;
  hc_buckets : (int, int ref) Hashtbl.t;
}

let hist_cell () =
  {
    hc_count = 0;
    hc_sum = 0.0;
    hc_min = infinity;
    hc_max = neg_infinity;
    hc_buckets = Hashtbl.create 8;
  }

let hist_cell_add c v n =
  (match Hashtbl.find_opt c.hc_buckets (bucket_of v) with
  | Some r -> r := !r + n
  | None -> Hashtbl.add c.hc_buckets (bucket_of v) (ref n));
  c.hc_count <- c.hc_count + n;
  c.hc_sum <- c.hc_sum +. (v *. float_of_int n);
  if v < c.hc_min then c.hc_min <- v;
  if v > c.hc_max then c.hc_max <- v

let hist_of_cell c =
  let idx = Hashtbl.fold (fun i r acc -> (i, !r) :: acc) c.hc_buckets [] in
  let idx = List.sort (fun (a, _) (b, _) -> compare a b) idx in
  {
    h_count = c.hc_count;
    h_sum = c.hc_sum;
    h_min = (if c.hc_count = 0 then 0.0 else c.hc_min);
    h_max = (if c.hc_count = 0 then 0.0 else c.hc_max);
    h_buckets = List.map (fun (i, n) -> (bucket_bound i, n)) idx;
  }

let hist_quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.h_count)) in
      max 1 (min h.h_count r)
    in
    let rec walk cum = function
      | [] -> h.h_max
      | (ub, n) :: rest ->
        let cum = cum + n in
        if cum >= rank then
          (* geometric midpoint of (ub/γ, ub], clamped to observed range *)
          let est = if ub <= 0.0 then 0.0 else ub /. sqrt hist_gamma in
          Float.max h.h_min (Float.min h.h_max est)
        else walk cum rest
    in
    walk 0 h.h_buckets
  end

let hist_cumulative h =
  let _, acc =
    List.fold_left
      (fun (cum, acc) (ub, n) ->
        let cum = cum + n in
        (cum, (ub, cum) :: acc))
      (0, []) h.h_buckets
  in
  List.rev acc

(* ---- handles ---- *)

type agg_cell = {
  mutable c_calls : int;
  mutable c_total : float;
  mutable c_max : float;
}

type span_rec = {
  id : int;
  name : string;
  parent : int;
  t_start : float;
  attrs : (string * value) list;
}

(* The trace sink is shared by a handle and all its forks; the write lock
   keeps concurrent domains' lines whole. *)
type writer = { w_oc : out_channel; w_lock : Mutex.t }

type state = {
  mutable stack : span_rec list;
  cnt : (string, int ref) Hashtbl.t;
  ggs : (string, float ref) Hashtbl.t;
  aggs : (string, agg_cell) Hashtbl.t;
  hists : (string, hist_cell) Hashtbl.t;
  trace : writer option;
  mutable trace_ctx : string option; (* trace id stamped on emitted spans *)
  default_parent : int; (* parent of top-level spans; -1 for a root handle *)
  root : bool; (* created (not forked): owns the final counter dump *)
  mutable closed : bool;
  (* Every public operation takes this lock, so one handle may be shared
     across domains without corrupting the hash tables.  The span stack
     still interleaves nonsensically under concurrent spans — concurrent
     recorders should use their own [fork] and [merge] it when done (the
     lock only makes the shared-handle case safe, not meaningful). *)
  lock : Mutex.t;
}

type t = Disabled | Enabled of state

let disabled = Disabled
let enabled = function Disabled -> false | Enabled _ -> true

(* Span ids are process-global so spans recorded by linked handles on
   different domains never collide; 0 is reserved (never allocated) and
   -1 means "no parent". *)
let span_ids = Atomic.make 1

(* Trace ids: a per-process random-ish prefix plus a counter, 16 hex
   chars.  Uniqueness matters within one trace file, which one process
   writes; the prefix keeps ids from colliding across restarts. *)
let trace_prefix =
  Hashtbl.hash (Unix.getpid (), Unix.gettimeofday ()) land 0xffffff

let trace_ids = Atomic.make 1

let mint_trace_id () =
  Printf.sprintf "%06x%010x" trace_prefix (Atomic.fetch_and_add trace_ids 1)

let emit st line =
  match st.trace with
  | None -> ()
  | Some w ->
    Mutex.protect w.w_lock (fun () ->
        output_string w.w_oc line;
        output_char w.w_oc '\n')

let mk_state ~trace ~trace_ctx ~default_parent ~root =
  {
    stack = [];
    cnt = Hashtbl.create 32;
    ggs = Hashtbl.create 8;
    aggs = Hashtbl.create 32;
    hists = Hashtbl.create 8;
    trace;
    trace_ctx;
    default_parent;
    root;
    closed = false;
    lock = Mutex.create ();
  }

let create ?trace () =
  let trace =
    Option.map (fun oc -> { w_oc = oc; w_lock = Mutex.create () }) trace
  in
  let st = mk_state ~trace ~trace_ctx:None ~default_parent:(-1) ~root:true in
  emit st
    (Json.obj
       [
         ("type", "\"meta\"");
         ("format", "\"absolver-trace\"");
         ("version", "2");
         ("clock", "\"monotonic-seconds\"");
       ]);
  Enabled st

let set_trace_id t id =
  match t with
  | Disabled -> ()
  | Enabled st -> Mutex.protect st.lock (fun () -> st.trace_ctx <- Some id)

let trace_id t =
  match t with
  | Disabled -> None
  | Enabled st -> Mutex.protect st.lock (fun () -> st.trace_ctx)

let current_span t =
  match t with
  | Disabled -> -1
  | Enabled st ->
    Mutex.protect st.lock (fun () ->
        match st.stack with sp :: _ -> sp.id | [] -> st.default_parent)

let fork ?parent ?trace_id t =
  match t with
  | Disabled -> Disabled
  | Enabled st ->
    let default_parent, inherited =
      Mutex.protect st.lock (fun () ->
          ( (match parent with
            | Some p -> p
            | None -> (
              match st.stack with
              | sp :: _ -> sp.id
              | [] -> st.default_parent)),
            st.trace_ctx ))
    in
    let trace_ctx =
      match trace_id with Some _ -> trace_id | None -> inherited
    in
    Enabled
      (mk_state ~trace:st.trace ~trace_ctx ~default_parent ~root:false)

(* ---- counters / gauges ---- *)

let add t name d =
  match t with
  | Disabled -> ()
  | Enabled st ->
    if d > 0 then
      Mutex.protect st.lock (fun () ->
          match Hashtbl.find_opt st.cnt name with
          | Some r -> r := !r + d
          | None -> Hashtbl.add st.cnt name (ref d))

let set_gauge t name v =
  match t with
  | Disabled -> ()
  | Enabled st ->
    Mutex.protect st.lock (fun () ->
        match Hashtbl.find_opt st.ggs name with
        | Some r -> r := v
        | None -> Hashtbl.add st.ggs name (ref v))

let observe t name v =
  match t with
  | Disabled -> ()
  | Enabled st ->
    Mutex.protect st.lock (fun () ->
        let c =
          match Hashtbl.find_opt st.hists name with
          | Some c -> c
          | None ->
            let c = hist_cell () in
            Hashtbl.add st.hists name c;
            c
        in
        hist_cell_add c v 1)

let histograms t =
  match t with
  | Disabled -> []
  | Enabled st ->
    Mutex.protect st.lock (fun () ->
        Hashtbl.fold (fun k c acc -> (k, hist_of_cell c) :: acc) st.hists [])
    |> List.sort compare

let histogram t name =
  match t with
  | Disabled -> None
  | Enabled st ->
    Mutex.protect st.lock (fun () ->
        Option.map hist_of_cell (Hashtbl.find_opt st.hists name))

let counter t name =
  match t with
  | Disabled -> 0
  | Enabled st ->
    Mutex.protect st.lock (fun () ->
        match Hashtbl.find_opt st.cnt name with Some r -> !r | None -> 0)

let counters t =
  match t with
  | Disabled -> []
  | Enabled st ->
    Mutex.protect st.lock (fun () ->
        Hashtbl.fold (fun k r acc -> (k, !r) :: acc) st.cnt [])
    |> List.sort compare

let gauges t =
  match t with
  | Disabled -> []
  | Enabled st ->
    Mutex.protect st.lock (fun () ->
        Hashtbl.fold (fun k r acc -> (k, !r) :: acc) st.ggs [])
    |> List.sort compare

(* ---- spans ---- *)

let span_open t ?(attrs = []) name =
  match t with
  | Disabled -> -1
  | Enabled st ->
    Mutex.protect st.lock (fun () ->
        let id = Atomic.fetch_and_add span_ids 1 in
        let parent =
          match st.stack with [] -> st.default_parent | s :: _ -> s.id
        in
        st.stack <- { id; name; parent; t_start = Clock.now (); attrs } :: st.stack;
        id)

let close_one st ~extra_attrs ?(counters = []) (sp : span_rec) =
  let t_end = Clock.now () in
  let dur = Float.max 0.0 (t_end -. sp.t_start) in
  (* aggregate *)
  (match Hashtbl.find_opt st.aggs sp.name with
  | Some c ->
    c.c_calls <- c.c_calls + 1;
    c.c_total <- c.c_total +. dur;
    if dur > c.c_max then c.c_max <- dur
  | None ->
    Hashtbl.add st.aggs sp.name { c_calls = 1; c_total = dur; c_max = dur });
  (* trace *)
  if st.trace <> None then begin
    let attrs = sp.attrs @ extra_attrs in
    let fields =
      [
        ("type", "\"span\"");
        ("id", string_of_int sp.id);
        ("parent", string_of_int sp.parent);
        ("name", Printf.sprintf "\"%s\"" (Json.escape sp.name));
        ("start", Json.of_float sp.t_start);
        ("dur", Json.of_float dur);
      ]
      @ (match st.trace_ctx with
        | None -> []
        | Some tid -> [ ("trace", Printf.sprintf "\"%s\"" (Json.escape tid)) ])
      @ (if attrs = [] then []
         else
           [
             ( "attrs",
               Json.obj (List.map (fun (k, v) -> (k, Json.of_value v)) attrs) );
           ])
      @
      if counters = [] then []
      else
        [
          ( "counters",
            Json.obj (List.map (fun (k, d) -> (k, string_of_int d)) counters) );
        ]
    in
    emit st (Json.obj fields)
  end

let abandoned_attr = [ ("abandoned", Bool true) ]

let span_close t ?(attrs = []) ?counters id =
  match t with
  | Disabled -> ()
  | Enabled st ->
    if id >= 0 then
      Mutex.protect st.lock (fun () ->
          (* Close any still-open children first (properly nested); they
             were force-closed rather than finished, and say so. *)
          let rec pop () =
            match st.stack with
            | [] -> ()
            | sp :: rest ->
              st.stack <- rest;
              if sp.id = id then close_one st ~extra_attrs:attrs ?counters sp
              else begin
                close_one st ~extra_attrs:abandoned_attr sp;
                pop ()
              end
          in
          pop ())

let span t ?attrs name f =
  match t with
  | Disabled -> f ()
  | Enabled _ ->
    let id = span_open t ?attrs name in
    Fun.protect ~finally:(fun () -> span_close t id) f

let event t ?(attrs = []) name =
  match t with
  | Disabled -> ()
  | Enabled st ->
    if st.trace <> None then
      Mutex.protect st.lock (fun () ->
      let parent =
        match st.stack with [] -> st.default_parent | s :: _ -> s.id
      in
      let fields =
        [
          ("type", "\"event\"");
          ("name", Printf.sprintf "\"%s\"" (Json.escape name));
          ("t", Json.of_float (Clock.now ()));
          ("span", string_of_int parent);
        ]
        @ (match st.trace_ctx with
          | None -> []
          | Some tid ->
            [ ("trace", Printf.sprintf "\"%s\"" (Json.escape tid)) ])
        @
        if attrs = [] then []
        else
          [
            ( "attrs",
              Json.obj (List.map (fun (k, v) -> (k, Json.of_value v)) attrs) );
          ]
      in
      emit st (Json.obj fields))

(* ---- aggregate access ---- *)

let span_aggregates t =
  match t with
  | Disabled -> []
  | Enabled st ->
    Mutex.protect st.lock (fun () ->
        Hashtbl.fold
          (fun k c acc ->
            ( k,
              {
                agg_calls = c.c_calls;
                agg_total_s = c.c_total;
                agg_max_s = c.c_max;
              } )
            :: acc)
          st.aggs [])
    |> List.sort compare

(* Fold a fork's totals back into its parent handle: counters add, span
   aggregates combine (calls and totals add, maxima max), gauges
   last-write-wins, histograms merge bucket-wise (exact — the reason the
   buckets are log-spaced rather than a sample window).  Trace lines need
   no merging: a fork already writes into the shared sink.  This is the
   closing half of the server's per-request handles. *)
let merge dst src =
  match (dst, src) with
  | Disabled, _ | _, Disabled -> ()
  | Enabled dstst, Enabled _ ->
    let src_counters = counters src in
    let src_aggs = span_aggregates src in
    let src_gauges = gauges src in
    let src_hists = histograms src in
    let src_tid = trace_id src in
    Mutex.protect dstst.lock (fun () ->
        List.iter
          (fun (k, v) ->
            if v > 0 then
              match Hashtbl.find_opt dstst.cnt k with
              | Some r -> r := !r + v
              | None -> Hashtbl.add dstst.cnt k (ref v))
          src_counters;
        List.iter
          (fun (k, (a : span_agg)) ->
            match Hashtbl.find_opt dstst.aggs k with
            | Some c ->
              c.c_calls <- c.c_calls + a.agg_calls;
              c.c_total <- c.c_total +. a.agg_total_s;
              if a.agg_max_s > c.c_max then c.c_max <- a.agg_max_s
            | None ->
              Hashtbl.add dstst.aggs k
                {
                  c_calls = a.agg_calls;
                  c_total = a.agg_total_s;
                  c_max = a.agg_max_s;
                })
          src_aggs;
        List.iter
          (fun (k, v) ->
            match Hashtbl.find_opt dstst.ggs k with
            | Some r -> r := v
            | None -> Hashtbl.add dstst.ggs k (ref v))
          src_gauges;
        List.iter
          (fun (k, (h : hist)) ->
            if h.h_count > 0 then begin
              let c =
                match Hashtbl.find_opt dstst.hists k with
                | Some c -> c
                | None ->
                  let c = hist_cell () in
                  Hashtbl.add dstst.hists k c;
                  c
              in
              List.iter
                (fun (ub, n) ->
                  let i = bucket_of_bound ub in
                  match Hashtbl.find_opt c.hc_buckets i with
                  | Some r -> r := !r + n
                  | None -> Hashtbl.add c.hc_buckets i (ref n))
                h.h_buckets;
              c.hc_count <- c.hc_count + h.h_count;
              c.hc_sum <- c.hc_sum +. h.h_sum;
              if h.h_min < c.hc_min then c.hc_min <- h.h_min;
              if h.h_max > c.hc_max then c.hc_max <- h.h_max
            end)
          src_hists;
        match (dstst.trace_ctx, src_tid) with
        | None, Some tid -> dstst.trace_ctx <- Some tid
        | _ -> ())

let pp_summary fmt t =
  match t with
  | Disabled -> Format.pp_print_string fmt "(telemetry disabled)"
  | Enabled _ ->
    let spans = span_aggregates t in
    Format.fprintf fmt "@[<v>";
    if spans <> [] then begin
      Format.fprintf fmt "%-32s %8s %12s %12s@," "span" "calls" "total(s)"
        "max(s)";
      List.iter
        (fun (name, a) ->
          Format.fprintf fmt "%-32s %8d %12.6f %12.6f@," name a.agg_calls
            a.agg_total_s a.agg_max_s)
        spans
    end;
    (match counters t with
    | [] -> ()
    | cs ->
      Format.fprintf fmt "counters:@,";
      List.iter (fun (k, v) -> Format.fprintf fmt "  %-34s %d@," k v) cs);
    (match gauges t with
    | [] -> ()
    | gs ->
      Format.fprintf fmt "gauges:@,";
      List.iter (fun (k, v) -> Format.fprintf fmt "  %-34s %g@," k v) gs);
    Format.fprintf fmt "@]"

let stats_json t =
  let cs = List.map (fun (k, v) -> (k, string_of_int v)) (counters t) in
  let gs = List.map (fun (k, v) -> (k, Json.of_float v)) (gauges t) in
  let ss =
    List.map
      (fun (k, a) ->
        ( k,
          Json.obj
            [
              ("calls", string_of_int a.agg_calls);
              ("total_s", Json.of_float a.agg_total_s);
              ("max_s", Json.of_float a.agg_max_s);
            ] ))
      (span_aggregates t)
  in
  let hs =
    List.map
      (fun (k, h) ->
        ( k,
          Json.obj
            [
              ("count", string_of_int h.h_count);
              ("sum", Json.of_float h.h_sum);
              ("min", Json.of_float h.h_min);
              ("max", Json.of_float h.h_max);
              ("p50", Json.of_float (hist_quantile h 0.50));
              ("p95", Json.of_float (hist_quantile h 0.95));
              ("p99", Json.of_float (hist_quantile h 0.99));
            ] ))
      (histograms t)
  in
  Json.obj
    ([ ("counters", Json.obj cs); ("gauges", Json.obj gs); ("spans", Json.obj ss) ]
    @ if hs = [] then [] else [ ("hists", Json.obj hs) ])

let flush t =
  match t with
  | Disabled -> ()
  | Enabled st -> (
    match st.trace with
    | None -> ()
    | Some w -> Mutex.protect w.w_lock (fun () -> Stdlib.flush w.w_oc))

(* [close] already holds the state lock; these lock-free variants avoid
   re-entering it (the mutex is not recursive). *)
let counters_unlocked st =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) st.cnt [] |> List.sort compare

let gauges_unlocked st =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) st.ggs [] |> List.sort compare

let close t =
  match t with
  | Disabled -> ()
  | Enabled st ->
    Mutex.protect st.lock (fun () ->
    if not st.closed then begin
      st.closed <- true;
      (* Close any spans left open so the trace is well-formed; they did
         not finish on their own, and the trace says so. *)
      List.iter (fun sp -> close_one st ~extra_attrs:abandoned_attr sp) st.stack;
      st.stack <- [];
      (* Only the handle that created the sink dumps the final totals —
         a fork closing must not interleave its partial counters into
         the shared stream. *)
      if st.root then begin
        List.iter
          (fun (k, v) ->
            emit st
              (Json.obj
                 [
                   ("type", "\"counter\"");
                   ("name", Printf.sprintf "\"%s\"" (Json.escape k));
                   ("total", string_of_int v);
                 ]))
          (counters_unlocked st);
        List.iter
          (fun (k, v) ->
            emit st
              (Json.obj
                 [
                   ("type", "\"gauge\"");
                   ("name", Printf.sprintf "\"%s\"" (Json.escape k));
                   ("value", Json.of_float v);
                 ]))
          (gauges_unlocked st)
      end;
      match st.trace with
      | None -> ()
      | Some w -> Mutex.protect w.w_lock (fun () -> Stdlib.flush w.w_oc)
    end)
