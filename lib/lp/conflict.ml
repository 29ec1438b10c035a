(* [Unknown] (budget exhausted mid-minimization) conservatively counts as
   "not proven infeasible": the candidate constraint is kept, so the core
   stays a superset of a minimal one — sound, just less minimal. *)
let is_infeasible cs =
  match fst (Simplex.solve_system cs) with
  | Simplex.Sat _ | Simplex.Unknown _ -> false
  | Simplex.Unsat _ -> true

(* Deletion filtering: drop each constraint in turn; if the rest is still
   infeasible the constraint is redundant for the conflict. *)
let minimize cs =
  if not (is_infeasible cs) then
    invalid_arg "Conflict.minimize: system is feasible";
  let rec filter kept = function
    | [] -> List.rev kept
    | c :: rest ->
      if is_infeasible (List.rev_append kept rest) then filter kept rest
      else filter (c :: kept) rest
  in
  filter [] cs

let minimal_core all tags =
  let selected =
    List.filter (fun (c : Linexpr.cons) -> List.mem c.tag tags) all
  in
  if not (is_infeasible selected) then tags
  else
    minimize selected
    |> List.map (fun (c : Linexpr.cons) -> c.tag)
    |> List.sort_uniq compare
