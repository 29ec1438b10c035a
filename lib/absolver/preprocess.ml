module Q = Absolver_numeric.Rational
module I = Absolver_numeric.Interval
module Types = Absolver_sat.Types
module Expr = Absolver_nlp.Expr
module Box = Absolver_nlp.Box
module Linexpr = Absolver_lp.Linexpr
module Cdcl = Absolver_sat.Cdcl
module Lp_presolve = Absolver_preprocess.Lp_presolve
module Icp = Absolver_preprocess.Icp
module Telemetry = Absolver_telemetry.Telemetry
module Budget = Absolver_resource.Budget
module Faults = Absolver_resource.Faults

type stats = {
  mutable fixed_literals : int;
  mutable removed_clauses : int;
  mutable failed_literals : int;
  mutable tightened_bounds : int;
  mutable unit_defs : int;
  mutable revisions : int;
  mutable wall_seconds : float;
}

let mk_stats () =
  {
    fixed_literals = 0;
    removed_clauses = 0;
    failed_literals = 0;
    tightened_bounds = 0;
    unit_defs = 0;
    revisions = 0;
    wall_seconds = 0.0;
  }

type t = {
  status : [ `Open | `Unsat ];
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

exception Refuted

let run ?(telemetry = Telemetry.disabled) ?(budget = Budget.unlimited) problem solver =
  let tel = telemetry in
  let t0 = Telemetry.Clock.now () in
  let stats = mk_stats () in
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
  let fixed_tbl : (Types.var, bool) Hashtbl.t = Hashtbl.create 16 in
  let units = ref [] in
  let box = ref (initial_box problem) in
  (* One pass: every step below catches its own budget exhaustion and
     returns a sound partial result; an exhausted budget skips presolve
     altogether. The fault point covers presolve orchestration itself. *)
  let refuted =
    try
      Faults.hit "presolve.run" budget;
      Budget.check_exn budget;
      (* 1. Failed-literal probing, by the search's own solver on its
         own watches; loading it propagated the root units. *)
      Telemetry.span tel "presolve.sat_simplify" (fun () ->
          if Cdcl.is_unsat solver then raise Refuted;
          (try
             Faults.hit "presolve.sat_simplify" budget;
             stats.failed_literals <- Cdcl.probe ~budget solver
           with Budget.Exhausted _ -> ());
          if Cdcl.is_unsat solver then raise Refuted);
      List.iter
        (fun l -> Hashtbl.replace fixed_tbl (Types.var_of l) (Types.is_pos l))
        (Cdcl.fixed solver);
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
      | Lp_presolve.Infeasible_rows _ -> raise Refuted
      | Lp_presolve.Presolved { tightened; _ } ->
        stats.tightened_bounds <- stats.tightened_bounds + tightened);
      (* 3. Interval constraint propagation over all implied relations
         (including nonlinear ones the LP pass cannot see). *)
      let start =
        Array.init nvars_a (fun i ->
            I.inter (Box.get !box i)
              (I.of_rational_bounds lb.Lp_presolve.lo.(i) lb.Lp_presolve.hi.(i)))
      in
      if Box.is_empty start && nvars_a > 0 then raise Refuted;
      let contracted, revisions =
        Telemetry.span tel "presolve.icp" (fun () ->
            Icp.contract ~budget ~box:start implied)
      in
      stats.revisions <- revisions;
      (match contracted with
      | `Empty -> raise Refuted
      | `Box (contracted, narrowed) ->
        box := contracted;
        stats.tightened_bounds <- stats.tightened_bounds + narrowed;
        (* Feed the (outward-rounded, hence sound) float box back into
           the exact bounds. *)
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
        done);
      (* 4. Feed arithmetic verdicts back as unit clauses: a definition
         whose conjunction provably holds (or provably fails) everywhere
         in the tightened box fixes its delta-linked literal. *)
      Telemetry.span tel "presolve.feedback" (fun () ->
          let env = Box.env !box in
          let lp_status (r : Expr.rel) =
            Option.map
              (fun le ->
                Lp_presolve.status lb
                  { Linexpr.expr = le; op = r.Expr.op; tag = r.Expr.tag })
              (Expr.linearize r.Expr.expr)
          in
          let rel_redundant r =
            Expr.certainly_holds env r || lp_status r = Some Lp_presolve.Redundant
          in
          let rel_infeasible r =
            Expr.certainly_violated env r
            || lp_status r = Some Lp_presolve.Infeasible
          in
          List.iter
            (fun v ->
              if not (Hashtbl.mem fixed_tbl v) then begin
                let rels =
                  List.map
                    (fun (d : Ab_problem.def) -> d.rel)
                    (Ab_problem.find_defs problem v)
                in
                let fix b =
                  Hashtbl.replace fixed_tbl v b;
                  stats.unit_defs <- stats.unit_defs + 1;
                  units := [ (if b then Types.pos v else Types.neg_of_var v) ] :: !units
                in
                if rels <> [] then
                  if List.for_all rel_redundant rels then fix true
                  else if List.exists rel_infeasible rels then fix false
              end)
            (Ab_problem.defined_vars problem));
      false
    with
    | Budget.Exhausted _ -> false
    | Refuted -> true
  in
  (* Loading the fed-back units propagates them at the root and compacts
     the clauses once more: the search gets the surviving ones, stripped
     and watched afresh. *)
  Cdcl.load solver !units;
  let unsat = refuted || Cdcl.is_unsat solver in
  stats.fixed_literals <- Hashtbl.length fixed_tbl;
  if not (Cdcl.is_unsat solver) then
    stats.removed_clauses <-
      max 0
        (Ab_problem.num_clauses problem
        - Hashtbl.length fixed_tbl - Cdcl.num_clauses solver);
  stats.wall_seconds <- Telemetry.Clock.now () -. t0;
  if unsat then
    {
      status = `Unsat;
      box = initial_box problem;
      bound_rels = Ab_problem.bound_rels problem;
      stats;
    }
  else
    {
      status = `Open;
      box = !box;
      bound_rels = bound_rels_of_lb nvars_a lb;
      stats;
    }
