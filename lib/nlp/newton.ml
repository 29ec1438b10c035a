module I = Absolver_numeric.Interval
module Budget = Absolver_resource.Budget

let step f ~var x =
  if I.is_empty x then I.empty
  else begin
    let m = I.mid x in
    let env_point v = if v = var then I.of_float m else I.entire in
    let env_box v = if v = var then x else I.entire in
    let fm = Expr.eval_interval env_point f in
    let f' = Expr.eval_interval env_box (Expr.deriv f var) in
    if I.is_empty fm || I.is_empty f' then x
    else if I.contains_zero f' then
      (* Extended division would split; keep the hull intersected. *)
      let quot = I.div fm f' in
      I.inter x (I.sub (I.of_float m) quot)
    else
      let quot = I.div fm f' in
      I.inter x (I.sub (I.of_float m) quot)
  end

let contract ?(max_steps = 20) ?(budget = Budget.unlimited) f ~var x =
  let steps = ref 0 in
  let rec loop i x =
    if i >= max_steps || I.is_empty x then x
    else begin
      Budget.tick budget;
      incr steps;
      let x' = step f ~var x in
      if I.is_empty x' then x'
      else if I.width x' < 0.9 *. I.width x then loop (i + 1) x'
      else x'
    end
  in
  (* Each Newton step preserves all roots, so an early stop returns a
     sound (merely wider) enclosure; the trip stays sticky in the budget. *)
  let x = match loop 0 x with v -> v | exception Budget.Exhausted _ -> x in
  (x, !steps)

let proves_root f ~var x =
  if I.is_empty x || not (Float.is_finite (I.width x)) then false
  else
    let n = step f ~var x in
    (not (I.is_empty n)) && n.I.lo > x.I.lo && n.I.hi < x.I.hi
