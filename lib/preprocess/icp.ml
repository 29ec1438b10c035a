module I = Absolver_numeric.Interval
module Box = Absolver_nlp.Box
module Expr = Absolver_nlp.Expr
module Hc4 = Absolver_nlp.Hc4
module Budget = Absolver_resource.Budget
module Faults = Absolver_resource.Faults

let contract ?max_rounds ?(budget = Budget.unlimited) ~box rels =
  let b = Box.copy box in
  let finish (alive, revisions) =
    if not alive then (`Empty, revisions)
    else begin
      let narrowed = ref 0 in
      Array.iteri
        (fun i iv -> if not (I.equal iv (Box.get b i)) then incr narrowed)
        box;
      (`Box (b, !narrowed), revisions)
    end
  in
  match
    Faults.hit "presolve.icp" budget;
    Hc4.contract ?max_rounds ~budget b rels
  with
  | r -> finish r
  | exception Budget.Exhausted _ ->
    (* Contraction so far only narrowed [b] while preserving solutions;
       return the partial result. *)
    finish (not (Box.is_empty b), 0)
