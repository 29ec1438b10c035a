module Q = Absolver_numeric.Rational
module I = Absolver_numeric.Interval
module Types = Absolver_sat.Types
module Expr = Absolver_nlp.Expr
module Box = Absolver_nlp.Box
module Linexpr = Absolver_lp.Linexpr
module Sat_simplify = Absolver_preprocess.Sat_simplify
module Lp_presolve = Absolver_preprocess.Lp_presolve
module Icp = Absolver_preprocess.Icp
module Telemetry = Absolver_telemetry.Telemetry
module Budget = Absolver_resource.Budget
module Faults = Absolver_resource.Faults

type stats = {
  mutable fixed_literals : int;
  mutable removed_clauses : int;
  mutable strengthened_literals : int;
  mutable failed_literals : int;
  mutable tightened_bounds : int;
  mutable unit_defs : int;
  mutable rounds : int;
  mutable revisions : int;
  mutable wall_seconds : float;
}

let mk_stats () =
  {
    fixed_literals = 0;
    removed_clauses = 0;
    strengthened_literals = 0;
    failed_literals = 0;
    tightened_bounds = 0;
    unit_defs = 0;
    rounds = 0;
    revisions = 0;
    wall_seconds = 0.0;
  }

type t = {
  status : [ `Open | `Unsat ];
  clauses : Types.lit list list;
  fixed : (Types.var * bool) list;
  box : Box.t;
  bound_rels : Expr.rel list;
  stats : stats;
}

let initial_box problem =
  let n = Ab_problem.num_arith_vars problem in
  let box = Box.create n in
  List.iter
    (fun (v, (lo, hi)) -> Box.set box v (I.of_rational_bounds lo hi))
    (Ab_problem.bounds problem);
  box

let identity problem =
  {
    status = `Open;
    clauses = Ab_problem.clauses problem;
    fixed = [];
    box = initial_box problem;
    bound_rels = Ab_problem.bound_rels problem;
    stats = mk_stats ();
  }

(* Arithmetic relations that hold in every model, given the root-fixed
   definition variables: a true variable contributes its whole
   conjunction; a false single-constraint variable contributes the
   negation when it is deterministic (negated equations branch and yield
   nothing unconditional). *)
let implied_rels problem fixed_tbl =
  Hashtbl.fold
    (fun v value acc ->
      match Ab_problem.find_defs problem v with
      | [] -> acc
      | ds when value -> List.map (fun (d : Ab_problem.def) -> d.rel) ds @ acc
      | [ d ] -> (
        match Expr.negate_rel d.rel with [ r ] -> r :: acc | _ -> acc)
      | _ -> acc)
    fixed_tbl []

let bound_rels_of_lb nvars (lb : Lp_presolve.bounds) =
  let rels = ref [] in
  for v = nvars - 1 downto 0 do
    (match lb.Lp_presolve.hi.(v) with
    | Some q ->
      rels :=
        {
          Expr.expr = Expr.sub (Expr.var v) (Expr.const q);
          op = Linexpr.Le;
          tag = Ab_problem.bounds_tag;
        }
        :: !rels
    | None -> ());
    match lb.Lp_presolve.lo.(v) with
    | Some q ->
      rels :=
        {
          Expr.expr = Expr.sub (Expr.var v) (Expr.const q);
          op = Linexpr.Ge;
          tag = Ab_problem.bounds_tag;
        }
        :: !rels
    | None -> ()
  done;
  !rels

(* Cross-domain fixpoint rounds. *)
let max_rounds = 3

let run ?(telemetry = Telemetry.disabled) ?(budget = Budget.unlimited) problem =
  let tel = telemetry in
  let t0 = Telemetry.Clock.now () in
  let stats = mk_stats () in
  let nvars_b = Ab_problem.num_bool_vars problem in
  let nvars_a = Ab_problem.num_arith_vars problem in
  (* Exact rational bounds and integer-variable marking. *)
  let lb = Lp_presolve.create nvars_a in
  List.iter
    (fun (v, (lo, hi)) ->
      lb.Lp_presolve.lo.(v) <- lo;
      lb.Lp_presolve.hi.(v) <- hi)
    (Ab_problem.bounds problem);
  let int_var = Array.make (max 1 nvars_a) false in
  List.iter
    (fun (d : Ab_problem.def) ->
      if d.domain = Ab_problem.Dint then
        List.iter (fun v -> int_var.(v) <- true) (Expr.vars d.rel.Expr.expr))
    (Ab_problem.defs problem);
  let is_int v = v >= 0 && v < nvars_a && int_var.(v) in
  let original_clauses = Ab_problem.clauses problem in
  let clauses = ref original_clauses in
  let fixed_tbl : (Types.var, bool) Hashtbl.t = Hashtbl.create 16 in
  let box = ref (initial_box problem) in
  let unsat = ref false in
  (* Every pass below catches its own budget exhaustion and returns a
     sound partial result; between rounds a non-raising poll stops the
     fixpoint. The fault point covers presolve orchestration itself. *)
  (try
   Faults.hit "presolve.run" budget;
   let continue_ = ref true in
   while
     (not !unsat) && !continue_ && stats.rounds < max_rounds
     && Budget.check budget = None
   do
     stats.rounds <- stats.rounds + 1;
     continue_ := false;
     Telemetry.span tel "presolve.round"
       ~attrs:[ ("round", Telemetry.Int stats.rounds) ]
       (fun () ->
     (* 1. SAT-level simplification. *)
     (match
        Telemetry.span tel "presolve.sat_simplify" (fun () ->
            Sat_simplify.simplify ~budget ~nvars:nvars_b !clauses)
      with
     | Sat_simplify.Unsat -> unsat := true
     | Sat_simplify.Simplified s ->
       clauses := s.Sat_simplify.clauses;
       List.iter (fun (v, b) -> Hashtbl.replace fixed_tbl v b) s.Sat_simplify.fixed;
       stats.strengthened_literals <-
         stats.strengthened_literals + s.Sat_simplify.stats.Sat_simplify.strengthened_literals;
       stats.failed_literals <-
         stats.failed_literals + s.Sat_simplify.stats.Sat_simplify.failed_literals;
       (* 2. LP presolve over the unconditionally implied linear rows. *)
       let implied = implied_rels problem fixed_tbl in
       let rows =
         List.filter_map
           (fun (r : Expr.rel) ->
             Option.map
               (fun le -> { Linexpr.expr = le; op = r.Expr.op; tag = r.Expr.tag })
               (Expr.linearize r.Expr.expr))
           implied
       in
       (match
          Telemetry.span tel "presolve.lp" (fun () ->
              Lp_presolve.presolve ~is_int ~budget lb rows)
        with
       | Lp_presolve.Infeasible_rows _ -> unsat := true
       | Lp_presolve.Presolved { tightened; _ } ->
         stats.tightened_bounds <- stats.tightened_bounds + tightened);
       (* 3. Interval constraint propagation over all implied relations
          (including nonlinear ones the LP pass cannot see). *)
       if not !unsat then begin
         let start =
           Array.init nvars_a (fun i ->
               I.inter (Box.get !box i)
                 (I.of_rational_bounds lb.Lp_presolve.lo.(i) lb.Lp_presolve.hi.(i)))
         in
         if Box.is_empty start && nvars_a > 0 then unsat := true
         else
           let contracted, revisions =
             Telemetry.span tel "presolve.icp" (fun () ->
                 Icp.contract ~budget ~box:start implied)
           in
           stats.revisions <- stats.revisions + revisions;
           match contracted with
           | `Empty -> unsat := true
           | `Box (contracted, narrowed) ->
             box := contracted;
             stats.tightened_bounds <- stats.tightened_bounds + narrowed;
             (* Feed the (outward-rounded, hence sound) float box back
                into the exact bounds. *)
             for i = 0 to nvars_a - 1 do
               let iv = Box.get contracted i in
               if Float.is_finite iv.I.lo then begin
                 let q = Q.of_float iv.I.lo in
                 let q = if is_int i then Q.of_bigint (Q.ceil q) else q in
                 match lb.Lp_presolve.lo.(i) with
                 | Some old when Q.geq old q -> ()
                 | _ -> lb.Lp_presolve.lo.(i) <- Some q
               end;
               if Float.is_finite iv.I.hi then begin
                 let q = Q.of_float iv.I.hi in
                 let q = if is_int i then Q.of_bigint (Q.floor q) else q in
                 match lb.Lp_presolve.hi.(i) with
                 | Some old when Q.leq old q -> ()
                 | _ -> lb.Lp_presolve.hi.(i) <- Some q
               end
             done
       end;
       (* 4. Feed arithmetic verdicts back as unit clauses: a definition
          whose conjunction provably holds (or provably fails) everywhere
          in the tightened box fixes its delta-linked literal. *)
       if not !unsat then
         Telemetry.span tel "presolve.feedback" (fun () ->
         let env = Box.env !box in
         let rel_redundant (r : Expr.rel) =
           Expr.certainly_holds env r
           || (match Expr.linearize r.Expr.expr with
              | Some le ->
                Lp_presolve.status lb
                  { Linexpr.expr = le; op = r.Expr.op; tag = r.Expr.tag }
                = Lp_presolve.Redundant
              | None -> false)
         in
         let rel_infeasible (r : Expr.rel) =
           Expr.certainly_violated env r
           || (match Expr.linearize r.Expr.expr with
              | Some le ->
                Lp_presolve.status lb
                  { Linexpr.expr = le; op = r.Expr.op; tag = r.Expr.tag }
                = Lp_presolve.Infeasible
              | None -> false)
         in
         let new_units = ref [] in
         List.iter
           (fun v ->
             if not (Hashtbl.mem fixed_tbl v) then begin
               let rels =
                 List.map
                   (fun (d : Ab_problem.def) -> d.rel)
                   (Ab_problem.find_defs problem v)
               in
               if rels <> [] then
                 if List.for_all rel_redundant rels then
                   new_units := [ Types.pos v ] :: !new_units
                 else if List.exists rel_infeasible rels then
                   new_units := [ Types.neg_of_var v ] :: !new_units
             end)
           (Ab_problem.defined_vars problem);
         if !new_units <> [] then begin
           stats.unit_defs <- stats.unit_defs + List.length !new_units;
           clauses := !new_units @ !clauses;
           continue_ := true
         end))
     )
   done
   with Budget.Exhausted _ -> ());
  stats.fixed_literals <- Hashtbl.length fixed_tbl;
  stats.removed_clauses <-
    max 0 (List.length original_clauses - List.length !clauses);
  stats.wall_seconds <- Telemetry.Clock.now () -. t0;
  if !unsat then
    {
      status = `Unsat;
      clauses = [ [] ];
      fixed = [];
      box = initial_box problem;
      bound_rels = Ab_problem.bound_rels problem;
      stats;
    }
  else
    {
      status = `Open;
      clauses = !clauses;
      fixed = Hashtbl.fold (fun v b acc -> (v, b) :: acc) fixed_tbl [];
      box = !box;
      bound_rels = bound_rels_of_lb nvars_a lb;
      stats;
    }
