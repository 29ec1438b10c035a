(* Per-layer attribution of a traced run. Span self times come from the
   JSONL trace, loaded with the trace-analysis library; work counters
   come from the run's telemetry aggregate (in-process for the batch
   workloads, the daemon's metrics for the server). *)

module T = Absolver_tracetool.Tracetool

(* The layer a span's self time belongs to. Names follow the engine's
   span vocabulary; anything new defaults to the engine loop. The
   daemon's [server.request] span keeps, after its engine children, the
   request's parsing and reply rendering: the server's front end. *)
let layer_of name =
  let is prefix = String.starts_with ~prefix name in
  if is "presolve" then "presolve"
  else if name = "sat_search" then "sat"
  else if name = "linear_check" then "lp"
  else if name = "nonlinear_check" then "bp"
  else if is "frontend" || is "server" then "frontend"
  else if is "bench" || is "client" then "bench"
  else "engine"

let engine_layers = [ "presolve"; "sat"; "lp"; "bp"; "engine" ]

type spans = {
  self : (string, float) Hashtbl.t;  (** layer -> self seconds *)
  total : (string, float) Hashtbl.t;  (** span name -> inclusive seconds *)
  calls : (string, int) Hashtbl.t;  (** span name -> count *)
}

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let load path =
  match T.load path with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok t -> t

let summarize trace =
  let s = { self = Hashtbl.create 8; total = Hashtbl.create 32; calls = Hashtbl.create 32 } in
  List.iter
    (fun (sp : T.span) ->
      bump s.self (layer_of sp.T.sp_name) (T.self_seconds trace sp);
      bump s.total sp.T.sp_name sp.T.sp_dur;
      Hashtbl.replace s.calls sp.T.sp_name
        (1 + Option.value ~default:0 (Hashtbl.find_opt s.calls sp.T.sp_name)))
    (T.spans trace);
  s

let self s layer = Option.value ~default:0.0 (Hashtbl.find_opt s.self layer)
let total s name = Option.value ~default:0.0 (Hashtbl.find_opt s.total name)
let calls s name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt s.calls name))

let engine_self s = List.fold_left (fun a l -> a +. self s l) 0.0 engine_layers

(* The layer metrics shared by every workload, per pass. [counter] reads
   a telemetry counter by name and [relax_lp_s] is the sum of the
   [bp.relax.lp_time] histogram, both over the traced passes; [busy_s] is
   the solving time per pass the presolve share is taken of. *)
let metrics ~passes ~counter ~relax_lp_s ~busy_s ~frontend_s ~frontend_bytes s =
  let per x = x /. float_of_int (max 1 passes) in
  let c name = per (counter name) in
  let ratio = Measure.ratio in
  [
    ("presolve.s", per (self s "presolve"));
    ("presolve.sat_simplify_s", per (total s "presolve.sat_simplify"));
    ("presolve.lp_s", per (total s "presolve.lp"));
    ("presolve.icp_s", per (total s "presolve.icp"));
    ("presolve.share", ratio (per (self s "presolve")) busy_s);
    ("presolve.fixed_literals", c "presolve.fixed_literals");
    ("presolve.removed_clauses", c "presolve.removed_clauses");
    ("presolve.tightened_bounds", c "presolve.tightened_bounds");
    ("sat.s", per (self s "sat"));
    ("sat.calls", per (calls s "sat_search"));
    ("sat.decisions", c "sat.decisions");
    ("sat.conflicts", c "sat.conflicts");
    ("sat.propagations", c "sat.propagations");
    ("engine.self_s", per (self s "engine"));
    ("engine.bool_models", c "engine.bool_models");
    ("engine.blocking_clauses", c "engine.blocking_clauses");
    ("engine.lp_refuted_ratio", ratio (c "engine.linear_conflicts") (c "engine.linear_checks"));
    ("lp.s", per (self s "lp"));
    ("lp.checks", c "engine.linear_checks");
    ("lp.pivots", c "lp.pivots");
    ("lp.pivots_per_check", ratio (c "lp.pivots") (c "engine.linear_checks"));
    ( "lp.cache_hit_ratio",
      ratio (c "lp.inc.cache_hits") (c "lp.inc.cache_hits" +. c "lp.inc.cache_misses") );
    ("lp.reuse_ratio", ratio (c "lp.inc.reused") (c "lp.inc.reused" +. c "lp.inc.asserted"));
    ("bp.s", per (self s "bp"));
    ("bp.calls", c "engine.nonlinear_calls");
    ("bp.nodes", c "nlp.nodes");
    ("bp.prune_ratio", ratio (c "nlp.prunings") (c "nlp.nodes"));
    ("nlp.hc4_revisions", c "nlp.hc4_revisions");
    ("nlp.newton_steps", c "nlp.newton_steps");
    ("relax.lp_s", per relax_lp_s);
    ("relax.cuts", c "nlp.relax.cuts_asserted");
    ("relax.lp_checks", c "nlp.relax.lp_checks");
    ("relax.pruned", c "nlp.relax.nodes_pruned");
    ("relax.prune_ratio", ratio (c "nlp.relax.nodes_pruned") (c "nlp.relax.lp_checks"));
    ("relax.tightened", c "nlp.relax.bounds_tightened");
    ("frontend.s", frontend_s);
    ("frontend.bytes", frontend_bytes);
  ]
