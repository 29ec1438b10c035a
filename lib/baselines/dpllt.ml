module Q = Absolver_numeric.Rational
module Types = Absolver_sat.Types
module Cdcl = Absolver_sat.Cdcl
module Expr = Absolver_nlp.Expr
module Linexpr = Absolver_lp.Linexpr
module Simplex = Absolver_lp.Simplex
module Ab_problem = Absolver_core.Ab_problem
module Solution = Absolver_core.Solution
module Clock = Absolver_telemetry.Telemetry.Clock
module Rbudget = Absolver_resource.Budget
module Err = Absolver_resource.Absolver_error

type frame = {
  pushed : bool; (* paired with a simplex push *)
  asserted : Linexpr.cons list;
  deferred : Expr.rel list list;
      (* groups of constraints at least one of which must fail (negated
         conjunctions and negated equalities, checked at full models) *)
}

let no_frame = { pushed = false; asserted = []; deferred = [] }

exception Deadline

(* The theory solver could not decide (its branch-and-bound cap or the
   shared budget fired inside [Simplex.solve_system]): neither a model nor
   a conflict — unwind to the boundary and answer unknown. *)
exception Theory_gave_up of Err.t

(* Memory metering (for the CVC-Lite-like configuration): a never-freed
   term database is charged per asserted constraint and per case split. *)
let charge meter n = match meter with None -> () | Some m -> Budget.alloc m n

let cons_size (c : Linexpr.cons) = 2 + List.length (Linexpr.coeffs c.Linexpr.expr)

let solve ?meter ?(max_conflicts = 50_000_000) ?(deadline_seconds = 3600.0)
    ?(budget = Rbudget.unlimited) problem =
  match Common.nonlinear_defs problem with
  | n when n > 0 ->
    Common.B_rejected
      (Printf.sprintf "%d nonlinear arithmetic constraint(s)" n)
  | _ ->
    let t_start = Clock.now () in
    let nvars_arith = Ab_problem.num_arith_vars problem in
    let simplex = Simplex.create () in
    Simplex.ensure_vars simplex nvars_arith;
    let cons_of_rel (r : Expr.rel) =
      match Expr.linearize r.Expr.expr with
      | Some le -> { Linexpr.expr = le; op = r.Expr.op; tag = r.Expr.tag }
      | None -> assert false (* nonlinear rejected above *)
    in
    (* Global bounds, asserted permanently. *)
    let bound_cons = List.map cons_of_rel (Ab_problem.bound_rels problem) in
    let bounds_ok =
      List.for_all
        (fun c -> Simplex.assert_cons simplex c = Simplex.Feasible)
        bound_cons
    in
    if not bounds_ok then Common.B_unsat
    else begin
      let int_vars =
        List.concat_map
          (fun (d : Ab_problem.def) ->
            if d.domain = Ab_problem.Dint then Expr.vars d.rel.Expr.expr else [])
          (Ab_problem.defs problem)
        |> List.sort_uniq compare
      in
      (* Theory state. *)
      let frames : frame Absolver_sat.Vec.t =
        Absolver_sat.Vec.create ~dummy:no_frame ()
      in
      let tassign = Array.make (max 1 (Ab_problem.num_bool_vars problem)) 0 in
      (* tassign.(v) = +1 assigned true, -1 false, 0 unassigned *)
      let pending = ref None in
      let final_model = ref None in
      let true_theory_lits () =
        Array.to_list
          (Array.mapi
             (fun v s ->
               if s = 0 || Ab_problem.find_defs problem v = [] then []
               else [ (if s > 0 then Types.pos v else Types.neg_of_var v) ])
             tassign)
        |> List.concat
      in
      let lits_of_tags tags =
        tags
        |> List.filter (fun tag -> tag >= 0)
        |> List.filter_map (fun tag ->
             if tag < Array.length tassign && tassign.(tag) <> 0 then
               Some
                 (if tassign.(tag) > 0 then Types.pos tag
                  else Types.neg_of_var tag)
             else None)
      in
      let on_assign lit =
        if Clock.now () -. t_start > deadline_seconds then raise Deadline;
        let v = Types.var_of lit in
        if v < Array.length tassign then
          tassign.(v) <- (if Types.is_pos lit then 1 else -1);
        let defs = if v < Array.length tassign then Ab_problem.find_defs problem v else [] in
        if defs = [] || !pending <> None then
          Absolver_sat.Vec.push frames no_frame
        else begin
          let rels = List.map (fun (d : Ab_problem.def) -> d.rel) defs in
          if Types.is_pos lit then begin
            (* Assert the whole conjunction. *)
            charge meter 16;
            Simplex.push simplex;
            let asserted = ref [] in
            let rec go = function
              | [] -> ()
              | r :: rest -> (
                let c = cons_of_rel r in
                charge meter (cons_size c);
                match Simplex.assert_cons simplex c with
                | Simplex.Feasible ->
                  asserted := c :: !asserted;
                  go rest
                | Simplex.Infeasible tags -> pending := Some (lits_of_tags tags))
            in
            go rels;
            Absolver_sat.Vec.push frames
              { pushed = true; asserted = !asserted; deferred = [] }
          end
          else begin
            match rels with
            | [ ({ Expr.op = Linexpr.Le | Linexpr.Lt | Linexpr.Ge | Linexpr.Gt; _ } as r) ] ->
              (* Single inequality: assert its negation. *)
              charge meter 16;
              Simplex.push simplex;
              let nr = match Expr.negate_rel r with [ x ] -> x | _ -> assert false in
              let c = cons_of_rel nr in
              charge meter (cons_size c);
              (match Simplex.assert_cons simplex c with
              | Simplex.Feasible ->
                Absolver_sat.Vec.push frames
                  { pushed = true; asserted = [ c ]; deferred = [] }
              | Simplex.Infeasible tags ->
                pending := Some (lits_of_tags tags);
                Absolver_sat.Vec.push frames
                  { pushed = true; asserted = []; deferred = [] })
            | _ ->
              (* Negated equality or negated conjunction: disjunctive, so
                 defer to the full-model check. *)
              Absolver_sat.Vec.push frames { no_frame with deferred = [ rels ] }
          end
        end
      in
      let on_backtrack keep =
        while Absolver_sat.Vec.size frames > keep do
          let f = Absolver_sat.Vec.pop frames in
          if f.pushed then Simplex.pop simplex
        done;
        (* Rebuild tassign lazily: entries beyond the kept trail are reset
           by scanning; cheaper bookkeeping would track the trail, but the
           solver only calls this on backtracks. *)
        pending := None
      in
      (* tassign must shrink with the trail; maintain a parallel stack. *)
      let assign_stack : int Absolver_sat.Vec.t =
        Absolver_sat.Vec.create ~dummy:(-1) ()
      in
      let on_assign' lit =
        Absolver_sat.Vec.push assign_stack (Types.var_of lit);
        on_assign lit
      in
      let on_backtrack' keep =
        while Absolver_sat.Vec.size assign_stack > keep do
          let v = Absolver_sat.Vec.pop assign_stack in
          if v < Array.length tassign then tassign.(v) <- 0
        done;
        on_backtrack keep
      in
      let structural = List.init nvars_arith Fun.id in
      let active_cons () =
        bound_cons
        @ Absolver_sat.Vec.fold (fun acc f -> f.asserted @ acc) [] frames
      in
      let check ~final =
        if Clock.now () -. t_start > deadline_seconds then raise Deadline;
        (* Proof/lemma recording per consistency check. *)
        charge meter 48;
        match !pending with
        | Some lits ->
          pending := None;
          Some lits
        | None -> (
          match Simplex.check simplex with
          | Simplex.Infeasible tags -> Some (lits_of_tags tags)
          | Simplex.Feasible ->
            if not final then None
            else begin
              let rational_model = Simplex.concrete_model simplex ~vars:structural in
              let env v =
                Option.value ~default:Q.zero (List.assoc_opt v rational_model)
              in
              (* Deferred disjunctions of violations. *)
              let deferred_groups =
                Absolver_sat.Vec.fold (fun acc f -> f.deferred @ acc) [] frames
              in
              let violated_group_ok group =
                List.exists
                  (fun (r : Expr.rel) ->
                    match Expr.eval_exact env r.Expr.expr with
                    | None -> false
                    | Some value -> (
                      match r.Expr.op with
                      | Linexpr.Le -> Q.gt value Q.zero
                      | Linexpr.Lt -> Q.geq value Q.zero
                      | Linexpr.Ge -> Q.lt value Q.zero
                      | Linexpr.Gt -> Q.leq value Q.zero
                      | Linexpr.Eq -> not (Q.is_zero value)))
                  group
              in
              let deferred_ok = List.for_all violated_group_ok deferred_groups in
              let int_ok model =
                List.for_all
                  (fun v ->
                    match List.assoc_opt v model with
                    | Some q -> Q.is_integer q
                    | None -> true)
                  int_vars
              in
              if deferred_ok && int_ok rational_model then begin
                final_model := Some rational_model;
                None
              end
              else if deferred_ok && int_vars <> [] then begin
                (* Integer repair: from-scratch branch and bound over the
                   active constraint set (the slow path of Table 3). *)
                let active = active_cons () in
                charge meter (64 * List.length active * max 1 (List.length int_vars));
                match fst (Simplex.solve_system ~int_vars ~budget active) with
                | Simplex.Sat m when
                    int_ok m
                    && List.for_all
                         (fun g ->
                           violated_group_ok g
                           ||
                           (* re-evaluate under the int model *)
                           let env v =
                             Option.value ~default:Q.zero (List.assoc_opt v m)
                           in
                           List.exists
                             (fun (r : Expr.rel) ->
                               match Expr.eval_exact env r.Expr.expr with
                               | None -> false
                               | Some value -> (
                                 match r.Expr.op with
                                 | Linexpr.Le -> Q.gt value Q.zero
                                 | Linexpr.Lt -> Q.geq value Q.zero
                                 | Linexpr.Ge -> Q.lt value Q.zero
                                 | Linexpr.Gt -> Q.leq value Q.zero
                                 | Linexpr.Eq -> not (Q.is_zero value)))
                             g)
                         deferred_groups ->
                  final_model := Some m;
                  None
                | Simplex.Sat _ | Simplex.Unsat _ ->
                  (* Coarse conflict: the full current theory assignment. *)
                  Some (true_theory_lits ())
                | Simplex.Unknown e ->
                  (* No conflict was proven — learning one here could flip
                     a satisfiable answer to unsat. Give up instead. *)
                  raise (Theory_gave_up e)
              end
              else Some (true_theory_lits ())
            end)
      in
      let theory =
        {
          Cdcl.t_on_assign = on_assign';
          t_on_backtrack = on_backtrack';
          t_check = (fun ~final -> check ~final);
        }
      in
      let solver = Cdcl.create ~theory () in
      Cdcl.ensure_vars solver (Ab_problem.num_bool_vars problem);
      List.iter (Cdcl.add_clause solver) (Ab_problem.clauses problem);
      match Cdcl.solve ~max_conflicts ~budget solver with
      | exception Deadline -> Common.B_unknown "deadline exceeded"
      | exception Budget.Simulated_out_of_memory -> Common.B_out_of_memory
      | exception Theory_gave_up e -> Common.B_unknown (Err.to_string e)
      | Types.Unsat -> Common.B_unsat
      | Types.Unknown -> (
        match Rbudget.tripped budget with
        | Some e -> Common.B_unknown (Err.to_string e)
        | None -> Common.B_unknown "conflict budget exhausted")
      | Types.Sat ->
        let bools = Cdcl.model solver in
        let bools =
          Array.init (Ab_problem.num_bool_vars problem) (fun v ->
              if v < Array.length bools then bools.(v) else false)
        in
        let arith = Array.make nvars_arith None in
        (match !final_model with
        | Some m ->
          List.iter
            (fun (v, q) -> if v < nvars_arith then arith.(v) <- Some (Solution.Exact q))
            m
        | None -> ());
        Common.B_sat (Solution.make ~bools ~arith ~certified:true)
    end
