module Q = Absolver_numeric.Rational
module I = Absolver_numeric.Interval
module Types = Absolver_sat.Types
module Cdcl = Absolver_sat.Cdcl
module Expr = Absolver_nlp.Expr
module Box = Absolver_nlp.Box
module Linexpr = Absolver_lp.Linexpr
module Conflict = Absolver_lp.Conflict
module Simplex = Absolver_lp.Simplex
module Branch_prune = Absolver_nlp.Branch_prune
module Telemetry = Absolver_telemetry.Telemetry
module Budget = Absolver_resource.Budget
module Faults = Absolver_resource.Faults
module Err = Absolver_resource.Absolver_error
module Pool = Absolver_parallel.Pool

type options = {
  minimize_conflicts : bool;
  max_bool_models : int;
  eq_split_limit : int;
  sat_max_conflicts : int;
  max_unknown_models : int;
  default_phase : bool;
  use_linear_relaxation : bool;
  use_bp_relaxation : bool;
  use_presolve : bool;
  use_incremental : bool;
  telemetry : Telemetry.t;
  budget : Budget.t;
}

let default_options =
  {
    minimize_conflicts = false;
    max_bool_models = 2_000_000;
    eq_split_limit = 12;
    sat_max_conflicts = 50_000_000;
    max_unknown_models = 500;
    default_phase = true;
    use_linear_relaxation = true;
    use_bp_relaxation = false;
    use_presolve = true;
    use_incremental = true;
    telemetry = Telemetry.disabled;
    budget = Budget.unlimited;
  }

type result = R_sat of Solution.t | R_unsat | R_unknown of string

let pp_result problem fmt = function
  | R_sat s -> Format.fprintf fmt "sat@,%a" (Solution.pp problem) s
  | R_unsat -> Format.pp_print_string fmt "unsat"
  | R_unknown why -> Format.fprintf fmt "unknown (%s)" why

(* Every counter a solve keeps, declared once under its telemetry name.
   [show = (group, label)] makes it a [label=n] column of the [--stats]
   line, inside [group[...]] unless [group] is empty. *)
type counter = { id : int; name : string; show : (string * string) option }

let declared = ref []

let declare ?show name =
  let c = { id = List.length !declared; name; show } in
  declared := c :: !declared;
  c

let bool_models = declare ~show:("", "models") "engine.bool_models"
let linear_checks = declare ~show:("", "lin-checks") "engine.linear_checks"
let linear_conflicts = declare ~show:("", "lin-conflicts") "engine.linear_conflicts"
let nonlinear_calls = declare ~show:("", "nl-calls") "engine.nonlinear_calls"
let blocking_clauses = declare ~show:("", "blocked") "engine.blocking_clauses"
let eq_branches = declare ~show:("", "eq-branches") "engine.eq_branches"
let unknown_models = declare "engine.unknown_models"

(* Counters read off a solver's own stats record: [(show, name, field)],
   declared in list order. *)
let declare_fields fields =
  List.map (fun (show, name, field) -> (declare ?show name, field)) fields

(* Presolve's, read off its [Preprocess.stats]. *)
let presolve_counters =
  let open Preprocess in
  declare_fields
    [
      (Some ("presolve", "fixed"), "presolve.fixed_literals", fun s -> s.fixed_literals);
      (Some ("presolve", "removed"), "presolve.removed_clauses", fun s -> s.removed_clauses);
      (Some ("presolve", "tightened"), "presolve.tightened_bounds", fun s -> s.tightened_bounds);
      (None, "presolve.pure_literals", fun s -> s.pure_literals);
      (None, "presolve.strengthened_literals", fun s -> s.strengthened_literals);
      (None, "presolve.failed_literals", fun s -> s.failed_literals);
      (None, "presolve.unit_defs", fun s -> s.unit_defs);
      (None, "presolve.rounds", fun s -> s.rounds);
    ]

(* The SAT solver's, read off its cumulative [Types.stats]. *)
let sat_counters =
  let open Types in
  declare_fields
    [
      (Some ("sat", "decisions"), "sat.decisions", fun s -> s.decisions);
      (Some ("sat", "conflicts"), "sat.conflicts", fun s -> s.conflicts);
      (Some ("sat", "propagations"), "sat.propagations", fun s -> s.propagations);
      (Some ("sat", "restarts"), "sat.restarts", fun s -> s.restarts);
      (None, "sat.learnt_literals", fun s -> s.learnt_literals);
      (None, "sat.reductions", fun s -> s.reductions);
      (None, "sat.blocked_visits", fun s -> s.blocked_visits);
    ]

(* Every pivot of the run's linear checks and witness re-solves. A warm
   session reports its pivots and the [lp.inc.*] counters by name. *)
let lp_pivots = declare ~show:("", "pivots") "lp.pivots"
let _ = declare "lp.inc.solves"
let _ = declare ~show:("lp-inc", "asserted") "lp.inc.asserted"
let _ = declare ~show:("lp-inc", "retracted") "lp.inc.retracted"
let _ = declare ~show:("lp-inc", "reused") "lp.inc.reused"

(* HC4 revise passes, of presolve's interval pass and the searches. *)
let hc4_revisions = declare "nlp.hc4_revisions"

(* Branch-and-prune's, read off each search's [Branch_prune.stats]. *)
let bp_counters =
  let open Branch_prune in
  (hc4_revisions, fun s -> s.revisions)
  :: declare_fields
       [
         (Some ("bp", "nodes"), "nlp.nodes", fun s -> s.nodes);
         (Some ("bp", "prunings"), "nlp.prunings", fun s -> s.prunings);
         (None, "nlp.newton_steps", fun s -> s.newton_steps);
       ]

let all_counters = Array.of_list (List.rev !declared)

let counter_of_name name = Array.find_opt (fun c -> c.name = name) all_counters

type counts = int array

type run_stats = {
  counts : counts;
  mutable wall_seconds : float;
  mutable presolve_seconds : float;
  mutable budget_exhausted : Err.t option;
  mutable alloc_minor_words : float;
  mutable alloc_major_words : float;
}

let mk_stats () =
  {
    counts = Array.make (Array.length all_counters) 0;
    wall_seconds = 0.0;
    presolve_seconds = 0.0;
    budget_exhausted = None;
    alloc_minor_words = 0.0;
    alloc_major_words = 0.0;
  }

let count stats c = stats.counts.(c.id)

(* The one way a counter moves: into the run's store and the telemetry
   handle together. *)
let bump options stats c n =
  stats.counts.(c.id) <- stats.counts.(c.id) + n;
  Telemetry.add options.telemetry c.name n

(* Counters reported by name (a linear session's); names the engine does
   not declare are ignored. *)
let bump_named options stats counters =
  List.iter
    (fun (name, n) ->
      Option.iter (fun c -> bump options stats c n) (counter_of_name name))
    counters

let counters stats =
  Array.to_list (Array.map (fun c -> (c.name, count stats c)) all_counters)

let counter stats name =
  match counter_of_name name with
  | Some c -> count stats c
  | None -> invalid_arg ("Engine.counter: unknown counter " ^ name)

(* Minor-heap words (exact at every call, where [Gc.quick_stat]'s figure
   only advances at minor collections) and words allocated directly in
   the major heap (promotions would count minor words twice). *)
let alloc_snapshot () =
  let g = Gc.quick_stat () in
  (Gc.minor_words (), g.Gc.major_words -. g.Gc.promoted_words)

let absorb_alloc tel stats (minor0, major0) =
  let minor1, major1 = alloc_snapshot () in
  stats.alloc_minor_words <- minor1 -. minor0;
  stats.alloc_major_words <- major1 -. major0;
  Telemetry.observe tel "engine.alloc_words"
    (stats.alloc_minor_words +. stats.alloc_major_words)

(* The counters with a [show] column in declaration order, then times
   and allocation. *)
let pp_run_stats fmt s =
  let group = ref "" and first = ref true in
  let close () = if !group <> "" then Format.pp_print_char fmt ']' in
  Array.iter
    (fun c ->
      Option.iter
        (fun (g, label) ->
          if g <> "" && g = !group then Format.pp_print_char fmt ' '
          else begin
            close ();
            if not !first then Format.pp_print_char fmt ' ';
            if g <> "" then Format.fprintf fmt "%s[" g;
            group := g
          end;
          first := false;
          Format.fprintf fmt "%s=%d" label (count s c))
        c.show)
    all_counters;
  close ();
  Format.fprintf fmt " time=%.3fs presolve-time=%.3fs alloc[minor=%.0fw major=%.0fw]"
    s.wall_seconds s.presolve_seconds s.alloc_minor_words s.alloc_major_words;
  match s.budget_exhausted with
  | None -> ()
  | Some e -> Format.fprintf fmt " budget-exhausted=%s" (Err.code e)

(* Bump the SAT counters by the work [s] did since [prev]; returns a copy
   of [s] to difference the next call against. *)
let absorb_sat_stats options stats ~(prev : Types.stats) (s : Types.stats) =
  List.iter (fun (c, f) -> bump options stats c (f s - f prev)) sat_counters;
  { s with Types.decisions = s.Types.decisions }

(* One canonical JSON rendering of run_stats, shared by the CLI's
   --stats-json and the bench harness. *)
let run_stats_json s =
  Telemetry.Json.obj
    (List.map (fun (name, n) -> (name, string_of_int n)) (counters s)
    @ [
        ("wall_seconds", Telemetry.Json.of_float s.wall_seconds);
        ("presolve_seconds", Telemetry.Json.of_float s.presolve_seconds);
        ("alloc_minor_words", Telemetry.Json.of_float s.alloc_minor_words);
        ("alloc_major_words", Telemetry.Json.of_float s.alloc_major_words);
        ( "budget_exhausted",
          match s.budget_exhausted with
          | None -> "null"
          | Some e -> "\"" ^ Telemetry.Json.escape (Err.to_string e) ^ "\"" );
      ])

(* Outcome of checking one Boolean model arithmetically. *)
type model_check =
  | M_sat of Solution.t
  | M_conflict of Types.lit list (* blocking clause *)
  | M_unknown of string

(* All sign combinations for the branched (negated equation) definitions:
   each choice picks one relation from each group. *)
let rec combinations = function
  | [] -> [ [] ]
  | group :: rest ->
    let tails = combinations rest in
    List.concat_map (fun rel -> List.map (fun t -> rel :: t) tails) group

(* Build the blocking clause that forbids the delta-valuation selected by
   [model] on the definition variables listed in [tags]. *)
let blocking_of_tags model tags =
  tags
  |> List.filter (fun tag -> tag >= 0)
  |> List.sort_uniq compare
  |> List.map (fun v -> if model.(v) then Types.neg_of_var v else Types.pos v)

(* Linear relaxation: replace each maximal nonlinear subterm by an
   auxiliary variable bounded by the subterm's interval range over the
   problem box.  Structurally identical subterms share their auxiliary
   variable, so e.g. [yaw - f(v) >= 0.4] and [yaw - f(v) <= -0.4] become
   jointly LP-infeasible with the two-literal core {over, under} -- the
   layering that lets the cheap solver prune before the expensive one
   runs. *)
module Relax = struct
  type t = {
    mutable next_aux : int;
    table : (string, int) Hashtbl.t;
    mutable aux_bounds : Linexpr.cons list;
    box : Box.t;
  }

  let create ~first_aux ~box =
    { next_aux = first_aux; table = Hashtbl.create 16; aux_bounds = []; box }

  let aux_for st (e : Expr.t) =
    let key = Expr.to_string e in
    match Hashtbl.find_opt st.table key with
    | Some v -> v
    | None ->
      let v = st.next_aux in
      st.next_aux <- v + 1;
      Hashtbl.add st.table key v;
      let range = Expr.eval_interval (Box.env st.box) e in
      let open Absolver_numeric in
      (if (not (Interval.is_empty range)) && Float.is_finite range.Interval.lo
       then
         st.aux_bounds <-
           {
             Linexpr.expr =
               Linexpr.add_term
                 (Linexpr.constant (Q.neg (Q.of_float range.Interval.lo)))
                 Q.one v;
             op = Linexpr.Ge;
             tag = Ab_problem.bounds_tag;
           }
           :: st.aux_bounds);
      (if (not (Interval.is_empty range)) && Float.is_finite range.Interval.hi
       then
         st.aux_bounds <-
           {
             Linexpr.expr =
               Linexpr.add_term
                 (Linexpr.constant (Q.neg (Q.of_float range.Interval.hi)))
                 Q.one v;
             op = Linexpr.Le;
             tag = Ab_problem.bounds_tag;
           }
           :: st.aux_bounds);
      v

  let rec linexpr st (e : Expr.t) : Linexpr.t =
    match Expr.linearize e with
    | Some le -> le
    | None -> (
      match e with
      | Expr.Add (a, b) -> Linexpr.add (linexpr st a) (linexpr st b)
      | Expr.Sub (a, b) -> Linexpr.sub (linexpr st a) (linexpr st b)
      | Expr.Neg a -> Linexpr.neg (linexpr st a)
      | Expr.Mul (a, b) -> (
        match (Expr.linearize a, Expr.linearize b) with
        | Some la, _ when Linexpr.is_constant la ->
          Linexpr.scale (Linexpr.const la) (linexpr st b)
        | _, Some lb when Linexpr.is_constant lb ->
          Linexpr.scale (Linexpr.const lb) (linexpr st a)
        | _ -> Linexpr.var (aux_for st e))
      | Expr.Div (a, b) -> (
        match Expr.linearize b with
        | Some lb
          when Linexpr.is_constant lb && not (Q.is_zero (Linexpr.const lb)) ->
          Linexpr.scale (Q.inv (Linexpr.const lb)) (linexpr st a)
        | _ -> Linexpr.var (aux_for st e))
      | Expr.Const _ | Expr.Var _ | Expr.Pow _ | Expr.Sqrt _ | Expr.Exp _
      | Expr.Log _ | Expr.Sin _ | Expr.Cos _ ->
        Linexpr.var (aux_for st e))
end

(* [lsolve] is the LP entry point for this enumeration: either a
   persistent warm-started session or a from-scratch closure (see
   [enumerate] below), each bumping its own pivots into [stats]; [None]
   when no linear solver is registered. *)
let check_model ~registry ~options ~stats ~pre ~lsolve problem
    (model : bool array) =
  let tel = options.telemetry in
  let bump = bump options stats in
  let budget = options.budget in
  let defs = Ab_problem.defs problem in
  (* Presolve-tightened bounds and box: sound in every Boolean model,
     since presolve only derives facts implied by the whole problem. *)
  let bound_rels = pre.Preprocess.bound_rels in
  let int_vars =
    List.concat_map
      (fun (d : Ab_problem.def) ->
        if d.domain = Ab_problem.Dint then Expr.vars d.rel.Expr.expr else [])
      defs
    |> List.sort_uniq compare
  in
  (* Split definitions into fixed relations and branching groups: a true
     variable contributes all of its constraints; a false variable demands
     that at least one constraint of its conjunction fail, which (together
     with the Eq split of Sec. 1) yields a disjunctive branching group. *)
  let fixed, groups =
    List.fold_left
      (fun (fixed, groups) v ->
        let rels =
          List.map (fun (d : Ab_problem.def) -> d.rel) (Ab_problem.find_defs problem v)
        in
        if model.(v) then (rels @ fixed, groups)
        else
          match List.concat_map Expr.negate_rel rels with
          | [ r ] -> (r :: fixed, groups)
          | rs -> (fixed, rs :: groups))
      ([], [])
      (Ab_problem.defined_vars problem)
  in
  if List.length groups > options.eq_split_limit then
    M_unknown
      (Printf.sprintf "more than %d negated equations in one Boolean model"
         options.eq_split_limit)
  else if Option.is_none lsolve then
    (* An empty solver list is a configuration error, not a crash: report
       it as an undecidable model (pre-refactor this was a [failwith]). *)
    M_unknown "no linear solver registered"
  else begin
    let lsolve = Option.get lsolve in
    let all_combos = combinations groups in
    let cores = ref [] in
    let unknown = ref None in
    let solution = ref None in
    let nvars = Ab_problem.num_arith_vars problem in
    let try_combo combo =
      bump eq_branches 1;
      let rels = fixed @ combo @ bound_rels in
      let linear, nonlinear =
        List.partition_map
          (fun (r : Expr.rel) ->
            match Expr.linearize r.Expr.expr with
            | Some le -> Either.Left { Linexpr.expr = le; op = r.Expr.op; tag = r.Expr.tag }
            | None -> Either.Right r)
          rels
      in
      (* Linear filter, including relaxations of the nonlinear part. *)
      bump linear_checks 1;
      let lp_input =
        if options.use_linear_relaxation && nonlinear <> [] then begin
          let st = Relax.create ~first_aux:nvars ~box:(Box.copy pre.Preprocess.box) in
          let relaxed =
            List.map
              (fun (r : Expr.rel) ->
                {
                  Linexpr.expr = Relax.linexpr st r.Expr.expr;
                  op = r.Expr.op;
                  tag = r.Expr.tag;
                })
              nonlinear
          in
          linear @ relaxed @ st.Relax.aux_bounds
        end
        else linear
      in
      let lp_verdict =
        Telemetry.span tel "linear_check"
          ~attrs:[ ("constraints", Telemetry.Int (List.length lp_input)) ]
          (fun () ->
            let p0 = count stats lp_pivots in
            let v = lsolve ~int_vars lp_input in
            Telemetry.observe tel "lp.pivots_per_check"
              (float_of_int (count stats lp_pivots - p0));
            v)
      in
      match lp_verdict with
      | Registry.L_unknown e -> unknown := Some (Err.to_string e)
      | Registry.L_unsat tags ->
        bump linear_conflicts 1;
        let tags =
          if options.minimize_conflicts then Conflict.minimal_core linear tags
          else tags
        in
        cores := tags :: !cores
      | Registry.L_sat lin_model ->
        if nonlinear = [] then begin
          let arith = Array.make nvars None in
          List.iter
            (fun (v, q) -> if v < nvars then arith.(v) <- Some (Solution.Exact q))
            lin_model;
          solution :=
            Some (Solution.make ~bools:(Array.copy model) ~arith ~certified:true)
        end
        else begin
          (* Nonlinear step over the full relation system so shared
             variables stay consistent. *)
          bump nonlinear_calls 1;
          let box = Box.copy pre.Preprocess.box in
          (* The paper's solver-list semantics: try each registered solver
             until one produces a decent result. *)
          let rec try_solvers = function
            | [] -> Registry.N_unknown
            | (s : Registry.nonlinear_solver) :: rest -> (
              let v, st =
                s.Registry.ns_solve ~budget ~telemetry:tel ~nvars ~box rels
              in
              (* The counts come from this call's own search stats, so
                 concurrent solves never absorb each other's work. *)
              List.iter (fun (c, f) -> bump c (f st)) bp_counters;
              match v with
              | Registry.N_unknown -> try_solvers rest
              | verdict -> verdict)
          in
          let nl_vars =
            List.concat_map (fun (r : Expr.rel) -> Expr.vars r.Expr.expr) nonlinear
            |> List.sort_uniq compare
          in
          (* Membership set for the snapping loop below: scanning
             [nl_vars] per integer variable was O(|int_vars|*|nl_vars|). *)
          let nl_set = Hashtbl.create (1 + List.length nl_vars) in
          List.iter (fun v -> Hashtbl.replace nl_set v ()) nl_vars;
          let witness p certified =
            (* Integer variables appearing in nonlinear constraints: snap
               near-integral witness coordinates when the snapped point
               still satisfies everything. *)
            let p =
              let snapped = Array.copy p in
              let changed = ref false in
              List.iter
                (fun v ->
                  if Hashtbl.mem nl_set v then begin
                    let r = Float.round snapped.(v) in
                    if Float.abs (snapped.(v) -. r) > 0.0 && Float.abs (snapped.(v) -. r) < 1e-6
                    then begin
                      snapped.(v) <- r;
                      changed := true
                    end
                  end)
                int_vars;
              if
                !changed
                && List.for_all
                     (fun r -> Expr.holds_float ~tol:1e-9 (fun v -> snapped.(v)) r)
                     rels
              then snapped
              else p
            in
            (* The witness pins the nonlinear variables; re-solve the
               linear subsystem exactly with the shared variables fixed so
               purely-linear (and integer) variables get exact values. *)
            let fix_tag = -3 in
            let fixes =
              List.filter_map
                (fun v ->
                  let touched =
                    List.exists
                      (fun (c : Linexpr.cons) -> List.mem v (Linexpr.vars c.Linexpr.expr))
                      linear
                  in
                  if touched then
                    Some
                      {
                        Linexpr.expr =
                          Linexpr.add_term
                            (Linexpr.constant (Q.neg (Q.of_float p.(v))))
                            Q.one v;
                        op = Linexpr.Eq;
                        tag = fix_tag;
                      }
                  else None)
                nl_vars
            in
            let exact_part =
              match lsolve ~int_vars (fixes @ linear) with
              | Registry.L_sat m -> Some m
              | Registry.L_unsat _ | Registry.L_unknown _ -> None
            in
            let arith = Array.make nvars None in
            (match exact_part with
            | Some m ->
              List.iter
                (fun (v, q) -> if v < nvars then arith.(v) <- Some (Solution.Exact q))
                m;
              List.iter (fun v -> arith.(v) <- Some (Solution.Approx p.(v))) nl_vars
            | None ->
              (* Fall back to the raw witness for every variable. *)
              Array.iteri (fun v _ -> arith.(v) <- Some (Solution.Approx p.(v))) arith);
            solution :=
              Some
                (Solution.make ~bools:(Array.copy model) ~arith
                   ~certified:(certified && exact_part <> None))
          in
          let nl_verdict =
            Telemetry.span tel "nonlinear_check"
              ~attrs:[ ("relations", Telemetry.Int (List.length rels)) ]
              (fun () -> try_solvers registry.Registry.nonlinear)
          in
          match nl_verdict with
          | Registry.N_sat p -> witness p true
          | Registry.N_approx p -> witness p false
          | Registry.N_unsat ->
            (* Conservative core: every definition participating in this
               subsystem. *)
            let tags =
              List.filter_map
                (fun (r : Expr.rel) -> if r.Expr.tag >= 0 then Some r.Expr.tag else None)
                rels
            in
            cores := tags :: !cores
          | Registry.N_unknown -> unknown := Some "nonlinear solver gave up"
        end
    in
    let rec run = function
      | [] -> ()
      | combo :: rest ->
        if !solution = None && !unknown = None then begin
          try_combo combo;
          run rest
        end
    in
    run all_combos;
    match (!solution, !unknown) with
    | Some s, _ -> M_sat s
    | None, Some why -> M_unknown why
    | None, None ->
      let union = List.sort_uniq compare (List.concat !cores) in
      M_conflict (blocking_of_tags model union)
  end

(* A [Types.Unknown] out of CDCL either means its conflict cap fired or
   the shared budget tripped; the budget's sticky reason disambiguates. *)
let sat_unknown_reason options =
  match Budget.tripped options.budget with
  | Some e -> Err.to_string e
  | None -> "SAT conflict budget exhausted"

(* Enumerate Boolean models according to the configured strategy, invoking
   [on_model]; the callback's verdict drives blocking. *)
let enumerate ?projection:projection_override ~registry ~options ~stats ~pre
    problem ~on_feasible =
  if pre.Preprocess.status = `Unsat then R_unsat
  else begin
  let tel = options.telemetry in
  let bump = bump options stats in
  let num_vars = Ab_problem.num_bool_vars problem in
  let clauses = pre.Preprocess.clauses in
  let strategy =
    match registry.Registry.boolean with
    | s :: _ -> s.Registry.bs_strategy
    | [] -> Registry.Lsat_incremental
  in
  let had_unknown = ref None in
  let finished = ref false in
  let result = ref R_unsat in
  (* Blocking projection: the declared meaningful variables, defaulting to
     every variable.  Same projection => same arithmetic subsystem, so
     blocking the projection is sound and skips auxiliary-variable
     permutations of the same delta-valuation. *)
  let projection =
    match projection_override with
    | Some vs -> vs
    | None -> (
      match Ab_problem.projection problem with
      | Some vs -> vs
      | None -> List.init num_vars Fun.id)
  in
  let block_projection solver_model =
    (* Descending variable order (the projection is ascending): the
       solver watches the clause's first literals, so watches sit on the
       high (late-decided) variables and, with phase saving, consecutive
       models flip late variables first — keeping the early prefix of the
       arithmetic subsystem stable and the LP session's constraint delta
       small. *)
    List.rev_map
      (fun v -> if solver_model.(v) then Types.neg_of_var v else Types.pos v)
      projection
  in
  (* LP entry point for this whole enumeration: a persistent warm-started
     session when the first linear solver provides one (and the option is
     on), otherwise a from-scratch closure over [ls_solve]. Either way
     each call's work lands in [stats] as it happens, even when the call
     raises. *)
  let lsolve =
    match registry.Registry.linear with
    | { Registry.ls_session = Some mk; _ } :: _ when options.use_incremental ->
      let sess = mk ~budget:options.budget in
      let absorb () = bump_named options stats (sess.Registry.lsess_counters ()) in
      Some
        (fun ~int_vars cons ->
          Fun.protect ~finally:absorb (fun () ->
              sess.Registry.lsess_solve ~int_vars cons))
    | (ls : Registry.linear_solver) :: _ ->
      Some
        (fun ~int_vars cons ->
          let v, pivots =
            ls.Registry.ls_solve ~int_vars ~budget:options.budget cons
          in
          bump lp_pivots pivots;
          v)
    | [] -> None
  in
  let block_clause ~reason block =
    bump blocking_clauses 1;
    Telemetry.event tel "blocking_clause"
      ~attrs:
        [
          ("size", Telemetry.Int (List.length block));
          ("reason", Telemetry.String reason);
        ]
  in
  let handle_model solver_model add_blocking =
    Faults.hit "engine.bool_model" options.budget;
    bump bool_models 1;
    if count stats bool_models > options.max_bool_models then begin
      had_unknown := Some "Boolean model budget exhausted";
      finished := true
    end
    else
      match
        Telemetry.span tel "bool_model"
          ~attrs:[ ("index", Telemetry.Int (count stats bool_models)) ]
          (fun () ->
            check_model ~registry ~options ~stats ~pre ~lsolve problem
              solver_model)
      with
      | M_sat sol -> (
        Telemetry.event tel "solution";
        match on_feasible sol with
        | `Stop ->
          result := R_sat sol;
          finished := true
        | `Continue ->
          result := R_sat sol;
          let block = block_projection solver_model in
          block_clause ~reason:"enumerate" block;
          if block = [] then finished := true else add_blocking block)
      | M_conflict [] ->
        (* Arithmetic conflict independent of the Boolean valuation. *)
        result := (match !result with R_sat _ as s -> s | _ -> R_unsat);
        finished := true
      | M_conflict block ->
        block_clause ~reason:"conflict" block;
        add_blocking block
      | M_unknown why ->
        had_unknown := Some why;
        bump unknown_models 1;
        if count stats unknown_models > options.max_unknown_models then
          finished := true
        else begin
          (* Block this delta-valuation so the search can look for a
             decidable one; the result can no longer be a definitive
             UNSAT. *)
          let block = block_projection solver_model in
          block_clause ~reason:"unknown" block;
          if block = [] then finished := true else add_blocking block
        end
  in
  (match strategy with
  | Registry.Lsat_incremental ->
    let solver = Cdcl.create () in
    Cdcl.set_default_phase solver options.default_phase;
    Cdcl.ensure_vars solver num_vars;
    List.iter (Cdcl.add_clause solver) clauses;
    let prev = ref (Types.mk_stats ()) in
    let sat_solve () =
      Telemetry.span tel "sat_search" (fun () ->
          let out =
            Cdcl.solve ~max_conflicts:options.sat_max_conflicts
              ~budget:options.budget solver
          in
          prev := absorb_sat_stats options stats ~prev:!prev (Cdcl.stats solver);
          out)
    in
    let rec loop () =
      if not !finished then
        match sat_solve () with
        | Types.Unsat -> ()
        | Types.Unknown -> had_unknown := Some (sat_unknown_reason options)
        | Types.Sat ->
          let model = Cdcl.model solver in
          Preprocess.restore_model pre model;
          handle_model model (fun block -> Cdcl.add_clause solver block);
          loop ()
    in
    loop ()
  | Registry.Chaff_restarting ->
    let blocked = ref [] in
    let rec loop () =
      if not !finished then begin
        (* External restart: rebuild the entire solver, as the paper
           describes for black-box single-solution solvers. *)
        let solver = Cdcl.create () in
        Cdcl.set_default_phase solver options.default_phase;
        Cdcl.ensure_vars solver num_vars;
        List.iter (Cdcl.add_clause solver) clauses;
        List.iter (Cdcl.add_clause solver) !blocked;
        let out =
          Telemetry.span tel "sat_search" (fun () ->
              let out =
                Cdcl.solve ~max_conflicts:options.sat_max_conflicts
                  ~budget:options.budget solver
              in
              ignore
                (absorb_sat_stats options stats ~prev:(Types.mk_stats ())
                   (Cdcl.stats solver));
              out)
        in
        match out with
        | Types.Unsat -> ()
        | Types.Unknown -> had_unknown := Some (sat_unknown_reason options)
        | Types.Sat ->
          let model = Cdcl.model solver in
          Preprocess.restore_model pre model;
          handle_model model (fun block -> blocked := block :: !blocked);
          loop ()
      end
    in
    loop ());
  match (!result, !had_unknown) with
  | R_sat _, _ -> !result
  | _, Some why -> R_unknown why
  | r, None -> r
  end

(* Run (or skip) presolve and count its work. [protect_also] guards
   pure-literal elimination when the caller enumerates models over a
   custom projection. *)
let prepare ~options ?(protect_also = []) ~stats problem =
  let tel = options.telemetry in
  Telemetry.span tel "presolve" (fun () ->
      let pre =
        if options.use_presolve then
          Preprocess.run ~protect_also ~telemetry:tel ~budget:options.budget
            problem
        else Preprocess.identity problem
      in
      let s = pre.Preprocess.stats in
      List.iter (fun (c, f) -> bump options stats c (f s)) presolve_counters;
      bump options stats hc4_revisions s.Preprocess.revisions;
      stats.presolve_seconds <- s.Preprocess.wall_seconds;
      pre)

let problem_attrs problem =
  let s = Ab_problem.stats problem in
  [
    ("clauses", Telemetry.Int s.Ab_problem.n_clauses);
    ("bool_vars", Telemetry.Int (Ab_problem.num_bool_vars problem));
    ("arith_vars", Telemetry.Int (Ab_problem.num_arith_vars problem));
    ("linear", Telemetry.Int s.Ab_problem.n_linear);
    ("nonlinear", Telemetry.Int s.Ab_problem.n_nonlinear);
  ]

(* The engine's last line of defense: nothing — not [Budget.Exhausted],
   not an injected fault, not a stray exception from a plugged-in solver —
   crosses the public entry points. Typed reasons become [R_unknown] and
   are mirrored into [run_stats.budget_exhausted] from the budget's sticky
   trip, which also covers unknowns produced deep inside the loop. *)
let guarded_result ~options ~stats f =
  let result =
    match Budget.guard options.budget f with
    | Ok r -> r
    | Error e -> R_unknown (Err.to_string e)
  in
  stats.budget_exhausted <- Budget.tripped options.budget;
  result

let solve ?(registry = Registry.default) ?(options = default_options) problem =
  let tel = options.telemetry in
  let stats = mk_stats () in
  let t0 = Telemetry.Clock.now () in
  let a0 = alloc_snapshot () in
  let result =
    Telemetry.span tel "solve" ~attrs:(problem_attrs problem) (fun () ->
        guarded_result ~options ~stats (fun () ->
            Faults.hit "engine.solve" options.budget;
            let pre = prepare ~options ~stats problem in
            enumerate ~registry ~options ~stats ~pre problem
              ~on_feasible:(fun _ -> `Stop)))
  in
  stats.wall_seconds <- Telemetry.Clock.now () -. t0;
  absorb_alloc tel stats a0;
  (result, stats)

(* ------------------------------------------------------------------ *)
(* Portfolio mode: race whole solvers on separate domains.             *)
(* ------------------------------------------------------------------ *)

(* A competitor is any complete decision procedure for AB-problems.  The
   closures live here (rather than a concrete engine-vs-baselines list)
   because the baselines library depends on this one; the concrete wiring
   is in [Absolver_baselines.Portfolio]. *)
type competitor = {
  cp_name : string;
  cp_solve :
    budget:Budget.t -> telemetry:Telemetry.t -> Ab_problem.t -> result;
}

let engine_competitor ?(registry = Registry.default)
    ?(options = default_options) ?(name = "absolver") () =
  {
    cp_name = name;
    cp_solve =
      (fun ~budget ~telemetry problem ->
        let options = { options with budget; telemetry } in
        fst (solve ~registry ~options problem));
  }

let solve_portfolio ?(options = default_options) ~competitors problem =
  let tel = options.telemetry in
  let decisive = function R_sat _ | R_unsat -> true | R_unknown _ -> false in
  Telemetry.span tel "portfolio"
    ~attrs:[ ("competitors", Telemetry.Int (List.length competitors)) ]
    (fun () ->
      let entrants =
        List.map
          (fun c ->
            ( c.cp_name,
              fun ~budget ~telemetry -> c.cp_solve ~budget ~telemetry problem
            ))
          competitors
      in
      let report =
        Pool.race ~budget:options.budget ~telemetry:tel ~decisive entrants
      in
      match report.Pool.winner with
      | Some (name, r) ->
        Telemetry.event tel "portfolio.winner"
          ~attrs:[ ("name", Telemetry.String name) ];
        (r, Some name)
      | None ->
        (* Nobody decided: keep the first competitor's verdict (the main
           engine by convention), which preserves its unknown reason. *)
        let r =
          match report.Pool.results with
          | (_, Ok r) :: _ -> r
          | (_, Error e) :: _ -> R_unknown (Printexc.to_string e)
          | [] -> R_unknown "empty portfolio"
        in
        (r, None))

let all_models ?projection ?(registry = Registry.default)
    ?(options = default_options) ?(limit = max_int) problem =
  let tel = options.telemetry in
  let stats = mk_stats () in
  let t0 = Telemetry.Clock.now () in
  let a0 = alloc_snapshot () in
  let acc = ref [] in
  let n = ref 0 in
  let result =
    Telemetry.span tel "all_models" ~attrs:(problem_attrs problem) (fun () ->
        guarded_result ~options ~stats (fun () ->
            let pre =
              prepare ~options
                ?protect_also:
                  (match projection with Some vs -> Some vs | None -> None)
                ~stats problem
            in
            enumerate ?projection ~registry ~options ~stats ~pre problem
              ~on_feasible:(fun sol ->
                acc := sol :: !acc;
                incr n;
                if !n >= limit then `Stop else `Continue)))
  in
  stats.wall_seconds <- Telemetry.Clock.now () -. t0;
  absorb_alloc tel stats a0;
  match result with
  (* Anytime contract: when the budget is the reason the enumeration is
     incomplete, return the models found so far with the typed reason in
     [stats.budget_exhausted] instead of discarding them. *)
  | R_unknown _ when stats.budget_exhausted <> None -> Ok (List.rev !acc, stats)
  | R_unknown why when !acc = [] -> Error why
  | R_unknown why when !n < limit -> Error why
  | R_sat _ | R_unsat | R_unknown _ -> Ok (List.rev !acc, stats)

let count_models ?registry ?options problem =
  match all_models ?registry ?options problem with
  | Ok (models, stats) -> Ok (List.length models, stats)
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Optimization modulo the Boolean structure (linear problems).        *)

type opt_outcome =
  | Opt_best of Q.t * Solution.t
  | Opt_incumbent of Q.t * Solution.t
  | Opt_unbounded
  | Opt_unsat
  | Opt_unknown of string

exception Opt_stop of opt_outcome

let optimize ?(registry = Registry.default) ?(options = default_options)
    ?(limit = 10_000) ~objective direction problem =
  let nonlinear =
    List.filter
      (fun (d : Ab_problem.def) -> not (Expr.is_linear d.rel.Expr.expr))
      (Ab_problem.defs problem)
  in
  if nonlinear <> [] then
    Opt_unknown
      (Printf.sprintf "%d nonlinear definition(s): optimization is linear-only"
         (List.length nonlinear))
  else begin
    let stats = mk_stats () in
    let best = ref None in
    let nvars = Ab_problem.num_arith_vars problem in
    Telemetry.span options.telemetry "optimize" ~attrs:(problem_attrs problem)
      (fun () ->
    let a0 = alloc_snapshot () in
    let hit_limit = ref false in
    let guarded =
      Budget.guard options.budget (fun () ->
    let pre = prepare ~options ~stats problem in
    let bound_cons =
      List.filter_map
        (fun (r : Expr.rel) ->
          Option.map
            (fun le -> { Linexpr.expr = le; op = r.Expr.op; tag = r.Expr.tag })
            (Expr.linearize r.Expr.expr))
        pre.Preprocess.bound_rels
    in
    (* With [use_incremental], one simplex lives across every
       delta-valuation: the problem bounds are asserted permanently (no
       open frame), each valuation's relations go into a checkpointed
       frame that is rolled back afterwards, and every [maximize] warm
       starts from the previous optimum's basis. *)
    let persistent =
      if options.use_incremental then begin
        let sx = Absolver_lp.Simplex.create ~budget:options.budget () in
        Absolver_lp.Simplex.ensure_vars sx nvars;
        List.iter
          (fun (c : Linexpr.cons) ->
            ignore (Absolver_lp.Simplex.assert_cons sx c))
          bound_cons;
        Some sx
      end
      else None
    in
    let optimize_valuation (sol : Solution.t) =
      (* Build (or reuse) this delta-valuation's linear system and
         optimize it. The budgeted tableau may raise [Exhausted] out of
         [maximize]; the surrounding [Budget.guard] is the boundary that
         catches it (the [finally] first restores the session). *)
      let simplex, restore =
        match persistent with
        | Some sx ->
          let cp = Absolver_lp.Simplex.checkpoint sx in
          Absolver_lp.Simplex.push sx;
          (sx, fun () -> Absolver_lp.Simplex.rollback sx cp)
        | None ->
          let sx = Absolver_lp.Simplex.create ~budget:options.budget () in
          Absolver_lp.Simplex.ensure_vars sx nvars;
          List.iter
            (fun (c : Linexpr.cons) ->
              ignore (Absolver_lp.Simplex.assert_cons sx c))
            bound_cons;
          (sx, Fun.id)
      in
      Fun.protect ~finally:restore @@ fun () ->
      let add (r : Expr.rel) =
        match Expr.linearize r.Expr.expr with
        | None -> ()
        | Some le ->
          ignore
            (Absolver_lp.Simplex.assert_cons simplex
               { Linexpr.expr = le; op = r.Expr.op; tag = r.Expr.tag })
      in
      List.iter
        (fun v ->
          let rels =
            List.map (fun (d : Ab_problem.def) -> d.rel) (Ab_problem.find_defs problem v)
          in
          if sol.Solution.bools.(v) then List.iter add rels
          else
            (* Disjunctive negations (negated equalities / conjunctions):
               optimize within the branch the witness satisfies. *)
            let fenv av = Solution.float_env sol ~default:0.0 av in
            List.iter
              (fun r ->
                match Expr.negate_rel r with
                | [ nr ] -> add nr
                | nrs -> (
                  match
                    List.find_opt (fun nr -> Expr.holds_float ~tol:1e-9 fenv nr) nrs
                  with
                  | Some nr -> add nr
                  | None -> ( match nrs with nr :: _ -> add nr | [] -> ())))
              rels)
        (Ab_problem.defined_vars problem);
      let obj =
        match direction with
        | `Maximize -> objective
        | `Minimize -> Linexpr.neg objective
      in
      match Absolver_lp.Simplex.maximize simplex obj with
      | Absolver_lp.Simplex.O_infeasible _ -> ()
      | Absolver_lp.Simplex.O_unbounded -> raise (Opt_stop Opt_unbounded)
      | Absolver_lp.Simplex.O_optimal (value, model) ->
        let value = Absolver_numeric.Delta_rational.r value in
        let value = match direction with `Maximize -> value | `Minimize -> Q.neg value in
        let better =
          match !best with
          | None -> true
          | Some (v, _) -> (
            match direction with
            | `Maximize -> Q.gt value v
            | `Minimize -> Q.lt value v)
        in
        if better then begin
          let arith = Array.make nvars None in
          List.iter
            (fun (v, q) -> if v < nvars then arith.(v) <- Some (Solution.Exact q))
            model;
          best :=
            Some
              ( value,
                Solution.make ~bools:(Array.copy sol.Solution.bools) ~arith
                  ~certified:true )
        end
    in
    try
      `Res
        (enumerate ~registry ~options ~stats ~pre problem
           ~on_feasible:(fun sol ->
             optimize_valuation sol;
             if count stats bool_models >= limit then begin
               hit_limit := true;
               `Stop
             end
             else `Continue))
    with Opt_stop o -> `Stopped o)
    in
    stats.budget_exhausted <- Budget.tripped options.budget;
    absorb_alloc options.telemetry stats a0;
    match guarded with
    | Ok (`Stopped o) -> o
    | Error e -> (
      (* Budget exhausted (or a stray exception was contained): degrade to
         the incumbent rather than losing it. *)
      match !best with
      | Some (v, sol) -> Opt_incumbent (v, sol)
      | None -> Opt_unknown (Err.to_string e))
    | Ok (`Res r) -> (
      (* [Opt_best] requires a complete enumeration: neither the
         delta-valuation limit nor an undecided model may have cut it
         short — otherwise a better vertex could exist in the unexplored
         part and claiming optimality would overclaim. *)
      let complete =
        (not !hit_limit) && match r with R_unknown _ -> false | _ -> true
      in
      match (r, !best) with
      | R_unknown why, None -> Opt_unknown why
      | _, None -> Opt_unsat
      | _, Some (v, sol) ->
        if complete then Opt_best (v, sol) else Opt_incumbent (v, sol)))
  end
