module Q = Absolver_numeric.Rational
module I = Absolver_numeric.Interval
module Types = Absolver_sat.Types
module All_sat = Absolver_sat.All_sat
module Expr = Absolver_nlp.Expr
module Box = Absolver_nlp.Box
module Linexpr = Absolver_lp.Linexpr
module Conflict = Absolver_lp.Conflict
module Branch_prune = Absolver_nlp.Branch_prune
module Telemetry = Absolver_telemetry.Telemetry
module Budget = Absolver_resource.Budget
module Faults = Absolver_resource.Faults
module Err = Absolver_resource.Absolver_error

type options = {
  minimize_conflicts : bool;
  max_bool_models : int;
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
      (None, "presolve.failed_literals", fun s -> s.failed_literals);
      (None, "presolve.unit_defs", fun s -> s.unit_defs);
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

(* The LP sessions', read off the work each query reports. *)
let lp_counters =
  let open Absolver_lp.Incremental in
  declare_fields
    [
      (Some ("", "pivots"), "lp.pivots", fun s -> s.pivots);
      (None, "lp.inc.solves", fun s -> s.solves);
      (Some ("lp-inc", "asserted"), "lp.inc.asserted", fun s -> s.asserted);
      (Some ("lp-inc", "retracted"), "lp.inc.retracted", fun s -> s.retracted);
      (Some ("lp-inc", "reused"), "lp.inc.reused", fun s -> s.reused);
    ]

let lp_pivots = fst (List.hd lp_counters)

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
       ]

let all_counters = Array.of_list (List.rev !declared)

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

(* The one way a counter moves: into the run's store. The telemetry
   handle gets the run's totals once, when the run ends ([run]). *)
let bump stats c n = stats.counts.(c.id) <- stats.counts.(c.id) + n

let counters stats =
  Array.to_list (Array.map (fun c -> (c.name, count stats c)) all_counters)

let counter stats name =
  match Array.find_opt (fun c -> c.name = name) all_counters with
  | Some c -> count stats c
  | None -> invalid_arg ("Engine.counter: unknown counter " ^ name)

(* A span over part of the run. On an enabled handle it carries the
   counters that moved while it was open, from a copy of the store. *)
let span options stats ?attrs name f =
  let tel = options.telemetry in
  if not (Telemetry.enabled tel) then f ()
  else
    let before = Array.copy stats.counts in
    let id = Telemetry.span_open tel ?attrs name in
    let moved c acc =
      let d = count stats c - before.(c.id) in
      if d = 0 then acc else (c.name, d) :: acc
    in
    Fun.protect f ~finally:(fun () ->
        let counters = List.sort compare (Array.fold_right moved all_counters []) in
        Telemetry.span_close tel id ~counters)

(* Minor-heap words (exact at every call, where [Gc.quick_stat]'s figure
   only advances at minor collections) and words allocated directly in
   the major heap (promotions would count minor words twice). *)
let alloc_snapshot () =
  let g = Gc.quick_stat () in
  (Gc.minor_words (), g.Gc.major_words -. g.Gc.promoted_words)

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

(* Most negated equations (or conjunctions) one Boolean model may branch
   on: beyond it the model is left undecided rather than trying 2^n sign
   combinations. *)
let eq_split_limit = 12

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
   runs.  A solve relaxes each relation once, over one slot per distinct
   subterm (slot [s] is variable [-1 - s]); each check numbers the slots
   it uses (see [relaxed_atoms]). *)
module Relax = struct
  (* A subterm's slot, and its range as bounds [x + k op 0]: [(k, op)]. *)
  type slot = { id : int; range : (Q.t * Linexpr.op) list }
  type t = { table : slot Expr.Tbl.t; box : Box.t }

  let slot st (e : Expr.t) =
    match Expr.Tbl.find_opt st.table e with
    | Some s -> s
    | None ->
      let range = Expr.eval_interval (Box.env st.box) e in
      let bound x op =
        if (not (I.is_empty range)) && Float.is_finite x then [ (Q.neg (Q.of_float x), op) ]
        else []
      in
      let range = bound range.I.lo Linexpr.Ge @ bound range.I.hi Linexpr.Le in
      let s = { id = Expr.Tbl.length st.table; range } in
      Expr.Tbl.add st.table e s;
      s

  (* [e] over slot variables, and its slots in order of first use. *)
  let relax st (e : Expr.t) =
    let used = ref [] in
    let aux e =
      let s = slot st e in
      if not (List.memq s !used) then used := s :: !used;
      Linexpr.var (-1 - s.id)
    in
    let rec linexpr (e : Expr.t) : Linexpr.t =
      match Expr.linearize e with
      | Some le -> le
      | None -> (
        match e with
        | Expr.Add (a, b) -> Linexpr.add (linexpr a) (linexpr b)
        | Expr.Sub (a, b) -> Linexpr.sub (linexpr a) (linexpr b)
        | Expr.Neg a -> Linexpr.neg (linexpr a)
        | Expr.Mul (a, b) -> (
          match (Expr.linearize a, Expr.linearize b) with
          | Some la, _ when Linexpr.is_constant la ->
            Linexpr.scale (Linexpr.const la) (linexpr b)
          | _, Some lb when Linexpr.is_constant lb ->
            Linexpr.scale (Linexpr.const lb) (linexpr a)
          | _ -> aux e)
        | Expr.Div (a, b) -> (
          match Expr.linearize b with
          | Some lb
            when Linexpr.is_constant lb && not (Q.is_zero (Linexpr.const lb)) ->
            Linexpr.scale (Q.inv (Linexpr.const lb)) (linexpr a)
          | _ -> aux e)
        | Expr.Const _ | Expr.Var _ | Expr.Pow _ | Expr.Sqrt _ | Expr.Exp _
        | Expr.Log _ | Expr.Sin _ | Expr.Cos _ ->
          aux e)
    in
    let le = linexpr e in
    (le, List.rev !used)
end

(* A relation of a definition literal, compiled once per solve: a linear
   one to its atom in the LP session, a nonlinear one to its relaxation
   (built the first time a check needs it). *)
type piece =
  | Linear of Expr.rel * Linexpr.cons * int
  | Nonlinear of Expr.rel * (Linexpr.t * Relax.slot list) Lazy.t

let rel_of = function Linear (r, _, _) | Nonlinear (r, _) -> r

(* Relations that all hold, with their linear atoms' ids and their
   nonlinear pieces, each in order. *)
type conj = { pieces : piece list; ids : int array; nonlinear : piece list }

(* What a literal contributes to a model's conjunction: relations that
   all hold, or a branching group of which one must (the negation of an
   equation or of a conjunction, Sec. 1). *)
type side = Fixed of conj | Group of piece list

(* The problem compiled for one solve, after presolve. A literal compiles
   the first time a model assigns it, so a solve that checks one model
   does no more work than that check. *)
type compiled = {
  problem : Ab_problem.t;
  defined : Types.var array;
  sess : Registry.linear_session;
  (* The sides of [defined.(i)]: true at [2i], false at [2i + 1]; [unset]
     until compiled. *)
  sides : side array;
  int_vars : int list;
  relax : Relax.t;  (* over presolve's box *)
  bounds : conj;  (* presolve's, asserted after the literals *)
  (* The linear atom ids of the conjunction being checked, rewritten by
     every check: a model's query reads a prefix. *)
  mutable ids : int array;
}

let rec pieces sess relax = function
  | [] -> []
  | (r : Expr.rel) :: rs ->
    let p =
      match Expr.linearize r.Expr.expr with
      | Some le ->
        let c = { Linexpr.expr = le; op = r.Expr.op; tag = r.Expr.tag } in
        Linear (r, c, sess.Registry.lsess_atom c)
      | None -> Nonlinear (r, lazy (Relax.relax relax r.Expr.expr))
    in
    p :: pieces sess relax rs

let is_nonlinear = function Linear _ -> false | Nonlinear _ -> true

(* Filled in place, without a list of the ids: a solve that checks one
   model compiles a side for every literal it assigns. *)
let conj pieces =
  let nonlinear = List.filter is_nonlinear pieces in
  let ids = Array.make (List.length pieces - List.length nonlinear) 0 in
  ignore
    (List.fold_left
       (fun k p -> match p with Linear (_, _, id) -> ids.(k) <- id; k + 1 | Nonlinear _ -> k)
       0 pieces);
  { pieces; ids; nonlinear }

let unset = Fixed (conj [])

(* Make room for [n] ids in [c.ids], keeping those written. *)
let reserve_ids c n =
  if n > Array.length c.ids then begin
    let b = Array.make (max n (2 * Array.length c.ids)) 0 in
    Array.blit c.ids 0 b 0 (Array.length c.ids);
    c.ids <- b
  end

(* Write into [c.ids] from position [k]; each returns the position
   after what it wrote. *)
let put_id c k id =
  reserve_ids c (k + 1);
  c.ids.(k) <- id;
  k + 1

let put_ids c k ids =
  let n = Array.length ids in
  reserve_ids c (k + n);
  Array.blit ids 0 c.ids k n;
  k + n

let put_piece_id c k = function Linear (_, _, id) -> put_id c k id | Nonlinear _ -> k

let compile ~pre ~sess problem =
  (* Presolve-tightened bounds and box: sound in every Boolean model,
     since presolve only derives facts implied by the whole problem. *)
  let relax = { Relax.table = Expr.Tbl.create 16; box = pre.Preprocess.box } in
  let bounds = pieces sess relax pre.Preprocess.bound_rels in
  let defined = Array.of_list (Ab_problem.defined_vars problem)
  and nvars = Ab_problem.num_arith_vars problem in
  let is_int = Array.make nvars false in
  List.iter
    (fun (d : Ab_problem.def) ->
      if d.domain = Ab_problem.Dint then
        List.iter (fun v -> is_int.(v) <- true) (Expr.vars d.rel.Expr.expr))
    (Ab_problem.defs problem);
  {
    problem;
    defined;
    sess;
    sides = Array.make (2 * Array.length defined) unset;
    int_vars = List.filter (Array.get is_int) (List.init nvars Fun.id);
    relax;
    bounds = conj bounds;
    ids = [||];
  }

(* A true variable contributes all of its constraints; a false variable
   demands that at least one constraint of its conjunction fail, which
   (together with the Eq split of Sec. 1) yields a disjunctive branching
   group. *)
let side c i v value =
  let i = (2 * i) + if value then 0 else 1 in
  if c.sides.(i) != unset then c.sides.(i)
  else
    let rels = List.map (fun (d : Ab_problem.def) -> d.rel) (Ab_problem.find_defs c.problem v) in
    let s =
      if value then Fixed (conj (pieces c.sess c.relax rels))
      else
        match List.concat_map Expr.negate_rel rels with
        | [ r ] -> Fixed (conj (pieces c.sess c.relax [ r ]))
        | rs -> Group (pieces c.sess c.relax rs)
    in
    c.sides.(i) <- s;
    s

(* The relaxation's atoms for one check: the relaxed forms of
   [nonlinear] with their slots numbered [nvars], [nvars + 1], ... in
   order of first use, then each numbered slot's range bounds, newest
   first. *)
let relaxed_atoms c nvars nonlinear =
  let numbered = ref [] and bounds = ref [] in
  let number (s : Relax.slot) =
    if not (List.mem_assoc s.id !numbered) then begin
      let v = nvars + List.length !numbered in
      numbered := (s.id, v) :: !numbered;
      List.iter
        (fun (k, op) ->
          let expr = Linexpr.add_term (Linexpr.constant k) Q.one v in
          bounds := { Linexpr.expr; op; tag = Ab_problem.bounds_tag } :: !bounds)
        s.range
    end
  in
  let relaxed = function
    | Linear (_, cons, _) -> cons
    | Nonlinear (r, (lazy (le, slots))) ->
      List.iter number slots;
      let var (v, q) = (q, if v < 0 then List.assoc (-1 - v) !numbered else v) in
      let expr = Linexpr.of_list (List.map var (Linexpr.coeffs le)) (Linexpr.const le) in
      { Linexpr.expr; op = r.Expr.op; tag = r.Expr.tag }
  in
  let forms = List.map relaxed nonlinear in
  List.map c.sess.Registry.lsess_atom (forms @ !bounds)

let check_model ~registry ~options ~stats c (model : bool array) =
  let tel = options.telemetry in
  let bump = bump stats in
  let budget = options.budget in
  (* Split the literals into fixed relations and branching groups. The
     fixed relations run from the last defined variable to the first:
     their nonlinear pieces now, their ids at the front of [c.ids], and
     the pieces themselves only for a check that reads them. *)
  let side_at i = side c i c.defined.(i) model.(c.defined.(i)) in
  let fixed_nonlinear = ref [] and groups = ref [] in
  for i = 0 to Array.length c.defined - 1 do
    match side_at i with
    | Fixed { nonlinear; _ } -> fixed_nonlinear := nonlinear @ !fixed_nonlinear
    | Group ps -> groups := ps :: !groups
  done;
  let num_fixed = ref 0 in
  for i = Array.length c.defined - 1 downto 0 do
    match side_at i with
    | Fixed { ids; _ } -> num_fixed := put_ids c !num_fixed ids
    | Group _ -> ()
  done;
  let fixed =
    lazy
      (let fixed = ref [] in
       for i = 0 to Array.length c.defined - 1 do
         match side_at i with Fixed { pieces; _ } -> fixed := pieces @ !fixed | Group _ -> ()
       done;
       !fixed)
  in
  let fixed_nonlinear = !fixed_nonlinear and num_fixed = !num_fixed and groups = !groups in
  if List.length groups > eq_split_limit then
    M_unknown
      (Printf.sprintf "more than %d negated equations in one Boolean model"
         eq_split_limit)
  else begin
    let all_combos = combinations groups in
    let cores = ref [] in
    let unknown = ref None in
    let solution = ref None in
    let nvars = Ab_problem.num_arith_vars c.problem in
    (* Every LP query's work lands in [stats] as it happens, even when the
       query raises. *)
    let lsolve ~fixes n =
      Fun.protect
        ~finally:(fun () ->
          let work = c.sess.Registry.lsess_counters () in
          List.iter (fun (k, f) -> bump k (f work)) lp_counters)
        (fun () -> c.sess.Registry.lsess_solve ~int_vars:c.int_vars ~fixes c.ids n)
    in
    let try_combo combo =
      bump eq_branches 1;
      (* The combo's conjunction is [fixed @ combo @ bounds]: its linear
         atoms, the first [num_ids] of [c.ids], and its nonlinear
         relations. *)
      let num_ids = put_ids c (List.fold_left (put_piece_id c) num_fixed combo) c.bounds.ids in
      let nonlinear =
        fixed_nonlinear @ List.filter is_nonlinear combo @ c.bounds.nonlinear
      in
      let pieces () = Lazy.force fixed @ combo @ c.bounds.pieces in
      let linear () =
        List.filter_map
          (function Linear (_, cons, _) -> Some cons | Nonlinear _ -> None)
          (pieces ())
      in
      (* Linear filter, including relaxations of the nonlinear part. *)
      bump linear_checks 1;
      let num_lp_ids =
        if options.use_linear_relaxation && nonlinear <> [] then
          List.fold_left (put_id c) num_ids (relaxed_atoms c nvars nonlinear)
        else num_ids
      in
      let lp_verdict =
        span options stats "linear_check"
          ~attrs:[ ("constraints", Telemetry.Int num_lp_ids) ]
          (fun () ->
            let p0 = count stats lp_pivots in
            let v = lsolve ~fixes:[] num_lp_ids in
            Telemetry.observe tel "lp.pivots_per_check"
              (float_of_int (count stats lp_pivots - p0));
            v)
      in
      match lp_verdict with
      | Registry.L_unknown e -> unknown := Some (Err.to_string e)
      | Registry.L_unsat tags ->
        bump linear_conflicts 1;
        let tags =
          if options.minimize_conflicts then Conflict.minimal_core (linear ()) tags
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
          let rels = List.map rel_of (pieces ()) in
          let box = Box.copy c.relax.Relax.box in
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
          let is_nl = Array.make nvars false in
          List.iter
            (fun p -> List.iter (fun v -> is_nl.(v) <- true) (Expr.vars (rel_of p).Expr.expr))
            nonlinear;
          let nl_vars = List.filter (Array.get is_nl) (List.init nvars Fun.id) in
          let witness p certified =
            (* Integer variables appearing in nonlinear constraints: snap
               near-integral witness coordinates when the snapped point
               still satisfies everything. *)
            let snapped = Array.copy p and changed = ref false in
            List.iter
              (fun v ->
                let d = Float.abs (p.(v) -. Float.round p.(v)) in
                if is_nl.(v) && d > 0.0 && d < 1e-6 then begin
                  snapped.(v) <- Float.round p.(v);
                  changed := true
                end)
              c.int_vars;
            let p =
              if !changed && List.for_all (Expr.holds_float ~tol:1e-9 (Array.get snapped)) rels
              then snapped
              else p
            in
            (* The witness pins the nonlinear variables the linear atoms
               touch; re-solve the linear subsystem exactly with them
               fixed so purely-linear (and integer) variables get exact
               values. *)
            let touched = Array.make nvars false in
            List.iter
              (fun (cons : Linexpr.cons) ->
                List.iter (fun (v, _) -> touched.(v) <- true) (Linexpr.coeffs cons.expr))
              (linear ());
            let fix v =
              let expr = Linexpr.add_term (Linexpr.constant (Q.neg (Q.of_float p.(v)))) Q.one v in
              { Linexpr.expr; op = Linexpr.Eq; tag = -3 }
            in
            let fixes = List.map fix (List.filter (Array.get touched) nl_vars) in
            let exact_part =
              match lsolve ~fixes num_ids with
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
            span options stats "nonlinear_check"
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

(* CDCL's conflict cap per search for one Boolean model. *)
let sat_max_conflicts = 50_000_000

(* Give up after this many Boolean models whose arithmetic part could
   not be decided. *)
let max_unknown_models = 500

(* A [Types.Unknown] out of CDCL either means its conflict cap fired or
   the shared budget tripped; the budget's sticky reason disambiguates. *)
let sat_unknown_reason options =
  match Budget.tripped options.budget with
  | Some e -> Err.to_string e
  | None -> "SAT conflict budget exhausted"

(* Enumerate Boolean models according to the configured strategy, invoking
   [on_feasible] on each feasible one; the callback's verdict drives
   blocking. *)
let enumerate ?projection:projection_override ~registry ~options ~stats ~pre
    ~solver problem ~on_feasible =
  if pre.Preprocess.status = `Unsat then R_unsat
  else begin
  let tel = options.telemetry in
  let bump = bump stats in
  let num_vars = Ab_problem.num_bool_vars problem in
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
  (* [All_sat.blocking]'s literal order makes consecutive models differ
     in few late variables, which also keeps the LP session's bound delta
     small. *)
  let block_projection = All_sat.blocking ~projection in
  (* One LP session for this whole enumeration: warm with
     [use_incremental], otherwise deciding each check on a fresh tableau
     (the paper's restart per model). *)
  let sess =
    registry.Registry.linear.Registry.ls_session ~budget:options.budget
      ~warm:options.use_incremental
  in
  let compiled = lazy (compile ~pre ~sess problem) in
  let sat =
    All_sat.create ~phase:options.default_phase registry.Registry.boolean solver
  in
  (* An empty blocking clause blocks every valuation of the projection:
     the enumeration is complete. *)
  let block ~reason clause =
    bump blocking_clauses 1;
    Telemetry.event tel "blocking_clause"
      ~attrs:
        [
          ("size", Telemetry.Int (List.length clause));
          ("reason", Telemetry.String reason);
        ];
    if clause = [] then finished := true else All_sat.block sat clause
  in
  let handle_model solver_model =
    Faults.hit "engine.bool_model" options.budget;
    bump bool_models 1;
    if count stats bool_models > options.max_bool_models then begin
      had_unknown := Some "Boolean model budget exhausted";
      finished := true
    end
    else
      match
        span options stats "bool_model"
          ~attrs:[ ("index", Telemetry.Int (count stats bool_models)) ]
          (fun () ->
            check_model ~registry ~options ~stats (Lazy.force compiled)
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
          block ~reason:"enumerate" (block_projection solver_model))
      | M_conflict [] ->
        (* Arithmetic conflict independent of the Boolean valuation. *)
        result := (match !result with R_sat _ as s -> s | _ -> R_unsat);
        finished := true
      | M_conflict clause -> block ~reason:"conflict" clause
      | M_unknown why ->
        had_unknown := Some why;
        bump unknown_models 1;
        if count stats unknown_models > max_unknown_models then
          finished := true
        else begin
          (* Block this delta-valuation so the search can look for a
             decidable one; the result can no longer be a definitive
             UNSAT. *)
          block ~reason:"unknown" (block_projection solver_model)
        end
  in
  let rec loop () =
    if not !finished then
      match
        span options stats "sat_search" (fun () ->
            let out =
              All_sat.next ~max_conflicts:sat_max_conflicts
                ~budget:options.budget sat
            in
            let work = All_sat.work sat in
            List.iter (fun (c, f) -> bump c (f work)) sat_counters;
            out)
      with
      | Types.Unsat -> ()
      | Types.Unknown -> had_unknown := Some (sat_unknown_reason options)
      | Types.Sat ->
        (* The handle's own array, refilled by the next model: checking
           copies what a solution keeps, and the block is built before
           the next search. *)
        handle_model (All_sat.model sat);
        loop ()
  in
  loop ();
  match (!result, !had_unknown) with
  | R_sat _, _ -> !result
  | _, Some why -> R_unknown why
  | r, None -> r
  end

(* Load the CNF into the solver the search runs on, then run (or skip)
   presolve on it and count its work. *)
let prepare ~options ~stats problem =
  let tel = options.telemetry in
  let solver =
    All_sat.load ~num_vars:(Ab_problem.num_bool_vars problem) (Ab_problem.clauses problem)
  in
  span options stats "presolve" (fun () ->
      let pre =
        if options.use_presolve then
          Preprocess.run ~telemetry:tel ~budget:options.budget problem solver
        else Preprocess.identity problem
      in
      let s = pre.Preprocess.stats in
      List.iter (fun (c, f) -> bump stats c (f s)) presolve_counters;
      bump stats hc4_revisions s.Preprocess.revisions;
      stats.presolve_seconds <- s.Preprocess.wall_seconds;
      (pre, solver))

let problem_attrs problem =
  let s = Ab_problem.stats problem in
  [
    ("clauses", Telemetry.Int s.Ab_problem.n_clauses);
    ("bool_vars", Telemetry.Int (Ab_problem.num_bool_vars problem));
    ("arith_vars", Telemetry.Int (Ab_problem.num_arith_vars problem));
    ("linear", Telemetry.Int s.Ab_problem.n_linear);
    ("nonlinear", Telemetry.Int s.Ab_problem.n_nonlinear);
  ]

(* One run of [f] on a fresh counter store, in the [name] span. This is
   the engine's last line of defense: nothing — not [Budget.Exhausted],
   not an injected fault, not a stray exception from a plugged-in solver —
   crosses the public entry points. Typed reasons become [R_unknown] and
   are mirrored into [run_stats.budget_exhausted] from the budget's sticky
   trip, which also covers unknowns produced deep inside the loop. The
   telemetry handle then gets the run's allocation and counter totals,
   budget-cut runs included. *)
let run ~options ~name problem f =
  let tel = options.telemetry and stats = mk_stats () in
  let t0 = Telemetry.Clock.now () and minor0, major0 = alloc_snapshot () in
  let result =
    span options stats name ~attrs:(problem_attrs problem) (fun () ->
        match Budget.guard options.budget (fun () -> f stats) with
        | Ok r -> r
        | Error e -> R_unknown (Err.to_string e))
  in
  stats.budget_exhausted <- Budget.tripped options.budget;
  stats.wall_seconds <- Telemetry.Clock.now () -. t0;
  let minor1, major1 = alloc_snapshot () in
  stats.alloc_minor_words <- minor1 -. minor0;
  stats.alloc_major_words <- major1 -. major0;
  Telemetry.observe tel "engine.alloc_words" (stats.alloc_minor_words +. stats.alloc_major_words);
  Array.iter (fun c -> Telemetry.add tel c.name (count stats c)) all_counters;
  (result, stats)

let solve ?(registry = Registry.default) ?(options = default_options) problem =
  run ~options ~name:"solve" problem (fun stats ->
      Faults.hit "engine.solve" options.budget;
      let pre, solver = prepare ~options ~stats problem in
      enumerate ~registry ~options ~stats ~pre ~solver problem ~on_feasible:(fun _ -> `Stop))

let all_models ?projection ?(registry = Registry.default)
    ?(options = default_options) ?(limit = max_int) problem =
  let acc = ref [] in
  let n = ref 0 in
  let result, stats =
    run ~options ~name:"all_models" problem (fun stats ->
        let pre, solver = prepare ~options ~stats problem in
        enumerate ?projection ~registry ~options ~stats ~pre ~solver problem
          ~on_feasible:(fun sol ->
            acc := sol :: !acc;
            incr n;
            if !n >= limit then `Stop else `Continue))
  in
  match result with
  (* Anytime contract: when the budget is the reason the enumeration is
     incomplete, return the models found so far with the typed reason in
     [stats.budget_exhausted] instead of discarding them. *)
  | R_unknown _ when stats.budget_exhausted <> None -> Ok (List.rev !acc, stats)
  | R_unknown why when !acc = [] -> Error why
  | R_unknown why when !n < limit -> Error why
  | R_sat _ | R_unsat | R_unknown _ -> Ok (List.rev !acc, stats)
