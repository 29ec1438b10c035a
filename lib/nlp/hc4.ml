module I = Absolver_numeric.Interval
module F = Absolver_numeric.Float_ops
module Budget = Absolver_resource.Budget

exception Empty

type ann = { expr : Expr.t; itv : I.t; kids : ann array }

let rec forward box (e : Expr.t) =
  let node itv kids = { expr = e; itv; kids } in
  match e with
  | Expr.Const q -> node (I.of_rational q) [||]
  | Expr.Var v -> node (Box.get box v) [||]
  | Expr.Neg a ->
    let ka = forward box a in
    node (I.neg ka.itv) [| ka |]
  | Expr.Add (a, b) ->
    let ka = forward box a and kb = forward box b in
    node (I.add ka.itv kb.itv) [| ka; kb |]
  | Expr.Sub (a, b) ->
    let ka = forward box a and kb = forward box b in
    node (I.sub ka.itv kb.itv) [| ka; kb |]
  | Expr.Mul (a, b) ->
    let ka = forward box a and kb = forward box b in
    node (I.mul ka.itv kb.itv) [| ka; kb |]
  | Expr.Div (a, b) ->
    let ka = forward box a and kb = forward box b in
    node (I.div ka.itv kb.itv) [| ka; kb |]
  | Expr.Pow (a, n) ->
    let ka = forward box a in
    node (I.pow_int ka.itv n) [| ka |]
  | Expr.Sqrt a ->
    let ka = forward box a in
    node (I.sqrt ka.itv) [| ka |]
  | Expr.Exp a ->
    let ka = forward box a in
    node (I.exp ka.itv) [| ka |]
  | Expr.Log a ->
    let ka = forward box a in
    node (I.log ka.itv) [| ka |]
  | Expr.Sin a ->
    let ka = forward box a in
    node (I.sin ka.itv) [| ka |]
  | Expr.Cos a ->
    let ka = forward box a in
    node (I.cos ka.itv) [| ka |]

(* Sign-preserving nth root with outward widening (n >= 1). *)
let nth_root_point_down x n =
  if x = 0.0 then 0.0
  else if x = Float.infinity then Float.infinity
  else if x = Float.neg_infinity then Float.neg_infinity
  else
    let r =
      if x >= 0.0 then x ** (1.0 /. float_of_int n)
      else -.((-.x) ** (1.0 /. float_of_int n))
    in
    F.widen_down (F.widen_down r)

let nth_root_point_up x n =
  if x = 0.0 then 0.0
  else if x = Float.infinity then Float.infinity
  else if x = Float.neg_infinity then Float.neg_infinity
  else
    let r =
      if x >= 0.0 then x ** (1.0 /. float_of_int n)
      else -.((-.x) ** (1.0 /. float_of_int n))
    in
    F.widen_up (F.widen_up r)

(* Enclosure of { y >= 0 | y^n in r }, for r intersected with [0, inf). *)
let nth_root_nonneg (r : I.t) n =
  let r = I.inter r (I.make 0.0 Float.infinity) in
  if I.is_empty r then I.empty
  else
    I.make
      (Float.max 0.0 (nth_root_point_down r.I.lo n))
      (nth_root_point_up r.I.hi n)

(* Enclosure of { y | y^n in r } for odd n (monotone). *)
let nth_root_odd (r : I.t) n =
  if I.is_empty r then I.empty
  else I.make (nth_root_point_down r.I.lo n) (nth_root_point_up r.I.hi n)

let rec backward box ann required =
  let r = I.inter ann.itv required in
  if I.is_empty r then raise Empty;
  match ann.expr with
  | Expr.Const _ -> ()
  | Expr.Var v ->
    let narrowed = I.inter (Box.get box v) r in
    if I.is_empty narrowed then raise Empty;
    Box.set box v narrowed
  | Expr.Neg _ -> backward box ann.kids.(0) (I.neg r)
  | Expr.Add (_, _) ->
    let a = ann.kids.(0) and b = ann.kids.(1) in
    backward box a (I.sub r b.itv);
    backward box b (I.sub r a.itv)
  | Expr.Sub (_, _) ->
    let a = ann.kids.(0) and b = ann.kids.(1) in
    backward box a (I.add r b.itv);
    backward box b (I.sub a.itv r)
  | Expr.Mul (_, _) ->
    let a = ann.kids.(0) and b = ann.kids.(1) in
    (* When both the product target and the other factor contain zero, any
       value of this factor is feasible; otherwise extended division gives
       a sound projection. *)
    let proj num den =
      if I.contains_zero num && I.contains_zero den then I.entire
      else I.div num den
    in
    backward box a (proj r b.itv);
    backward box b (proj r a.itv)
  | Expr.Div (_, _) ->
    let a = ann.kids.(0) and b = ann.kids.(1) in
    backward box a (I.mul r b.itv);
    let proj_b =
      if I.contains_zero r && I.contains_zero a.itv then I.entire
      else I.div a.itv r
    in
    backward box b proj_b
  | Expr.Pow (_, n) ->
    let a = ann.kids.(0) in
    if n = 0 then ()
    else if n < 0 then begin
      (* a^n = r  =>  a^{-n} in 1/r *)
      let rinv = I.inv r in
      backward_pow box a (-n) rinv
    end
    else backward_pow box a n r
  | Expr.Sqrt _ ->
    let a = ann.kids.(0) in
    let rr = I.inter r (I.make 0.0 Float.infinity) in
    if I.is_empty rr then raise Empty;
    backward box a (I.sqr rr)
  | Expr.Exp _ -> backward box ann.kids.(0) (I.log r)
  | Expr.Log _ -> backward box ann.kids.(0) (I.exp r)
  | Expr.Sin _ | Expr.Cos _ ->
    (* No backward projection for the periodic functions: sound, just not
       contracting through them. *)
    ()

and backward_pow box a n r =
  if n mod 2 = 1 then backward box a (nth_root_odd r n)
  else begin
    let s = nth_root_nonneg r n in
    if I.is_empty s then raise Empty;
    let proj =
      if a.itv.I.lo >= 0.0 then s
      else if a.itv.I.hi <= 0.0 then I.neg s
      else I.hull (I.neg s) s
    in
    backward box a proj
  end

let required_of_op (op : Absolver_lp.Linexpr.op) =
  match op with
  | Absolver_lp.Linexpr.Le | Absolver_lp.Linexpr.Lt ->
    I.make Float.neg_infinity 0.0
  | Absolver_lp.Linexpr.Ge | Absolver_lp.Linexpr.Gt -> I.make 0.0 Float.infinity
  | Absolver_lp.Linexpr.Eq -> I.of_float 0.0

let revise box (rel : Expr.rel) =
  match
    let ann = forward box rel.Expr.expr in
    backward box ann (required_of_op rel.Expr.op)
  with
  | () -> not (Box.is_empty box)
  | exception Empty -> false

let contract ?(max_rounds = 10) ?(budget = Budget.unlimited) box rels =
  let revisions = ref 0 in
  let revise_counted rel =
    incr revisions;
    revise box rel
  in
  let rec loop round =
    if round >= max_rounds then true
    else begin
      Budget.tick budget;
      let before = Box.copy box in
      let alive = List.for_all revise_counted rels in
      if not alive then false
      else if Box.volume_reduced ~from:before ~to_:box then loop (round + 1)
      else true
    end
  in
  (* Contraction only narrows the box while preserving every solution, so
     stopping the fixpoint early is sound: report what is known so far.
     The budget's sticky trip reason lets the caller's own poll fire. *)
  let alive =
    match loop 0 with
    | alive -> alive
    | exception Budget.Exhausted _ -> not (Box.is_empty box)
  in
  (alive, !revisions)
