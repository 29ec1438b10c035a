module I = Absolver_numeric.Interval
module Q = Absolver_numeric.Rational
module Budget = Absolver_resource.Budget
module Linexpr = Absolver_lp.Linexpr

exception Empty

(* ------------------------------------------------------------------ *)
(* Tapes                                                               *)
(* ------------------------------------------------------------------ *)

(* A tape is one relation's expression in post-order, one node per slot
   of two int arrays: [code] holds the op code in its low four bits and
   the argument above them, [bs] operand b.  Op codes: 0 Const
   (argument: constant slot), 1 Var (argument: variable), 2 Neg, 3 Add,
   4 Sub, 5 Mul, 6 Div, 7 Pow, 8 Sqrt, 9 Exp, 10 Log, 11 Sin, 12 Cos.  A
   unary node keeps in [bs] the first index of its operand's subtree, so
   the backward sweep can skip a subtree it does not project into; Pow
   keeps that index as its argument and its exponent in [bs].

   The right operand's subtree comes first, so operand a is always the
   node right below, and the reverse sweep meets a node, then all of a's
   subtree, then all of b's: the order the recursive HC4 visited them
   in.  Constant slot [c] is [consts.(3c) .. consts.(3c+2)]: the
   enclosure [I.of_rational q] and [Q.to_float q]. *)
type tape = { code : int array; bs : int array; consts : float array }

type t = {
  rels : Expr.rel array;
  tapes : tape array;
  longest : int;  (** node count of the longest tape *)
}

let unbuilt = { code = [||]; bs = [||]; consts = [||] }

let compile rels =
  let rels = Array.of_list rels in
  {
    rels;
    tapes = Array.make (Array.length rels) unbuilt;
    longest = Array.fold_left (fun m r -> max m (Expr.size r.Expr.expr)) 0 rels;
  }

type scratch = {
  mutable lo : float array;  (** forward enclosure of each node *)
  mutable hi : float array;
  mutable rlo : float array;  (** what each node is required to lie in *)
  mutable rhi : float array;
  mutable wlo : float array;  (** the box at the start of a round *)
  mutable whi : float array;
  mutable bcode : int array;  (** the tape being built *)
  mutable bbs : int array;
  mutable bconsts : float array;
  mutable nodes : int;
  mutable nconsts : int;
}

let scratch () =
  {
    lo = [||];
    hi = [||];
    rlo = [||];
    rhi = [||];
    wlo = [||];
    whi = [||];
    bcode = [||];
    bbs = [||];
    bconsts = [||];
    nodes = 0;
    nconsts = 0;
  }

(* Every pass starts here: the slots fit any tape of [t]. *)
let fit s t =
  let n = t.longest in
  if Array.length s.lo < n then begin
    s.lo <- Array.make n 0.0;
    s.hi <- Array.make n 0.0;
    s.rlo <- Array.make n 0.0;
    s.rhi <- Array.make n 0.0;
    s.bcode <- Array.make n 0;
    s.bbs <- Array.make n 0;
    (* a binary tree of n nodes has at most (n + 1) / 2 leaves *)
    s.bconsts <- Array.make (3 * ((n + 1) / 2)) 0.0
  end

(* ------------------------------------------------------------------ *)
(* Rounding and interval kernels                                       *)
(* ------------------------------------------------------------------ *)

(* Copies of [Float_ops] and of [Stdlib.Float.min]/[max], kept here so
   the compiler inlines them: a float crossing a call that is not inlined
   is boxed.  The kernels below do the float operations of [Interval],
   in the same order, on endpoints held in the scratch arrays.  Float
   constants are literals: the compiler keeps those unboxed, where it
   boxes module fields such as [Float.infinity] on every use. *)

let inf = 0x1p+1024
let max_float = 0x1.fffffffffffffp+1023
let min_subnormal = 0x1p-1074

let[@inline] next_up (x : float) =
  if Float.is_nan x then x
  else if x = inf then x
  else if x = 0.0 then min_subnormal
  else
    let bits = Int64.bits_of_float x in
    if x > 0.0 then Int64.float_of_bits (Int64.succ bits)
    else Int64.float_of_bits (Int64.pred bits)

let[@inline] next_down (x : float) =
  if Float.is_nan x then x
  else if x = -.inf then x
  else if x = 0.0 then -.min_subnormal
  else
    let bits = Int64.bits_of_float x in
    if x > 0.0 then Int64.float_of_bits (Int64.pred bits)
    else Int64.float_of_bits (Int64.succ bits)

(* [Float_ops]' float-only step for |x| in [2^-969, max_float]. *)
let phi = 0x1.0000000000001p-53

let[@inline] widen_down x =
  let a = Float.abs x in
  if a >= 0x1p-969 && a <= max_float then x -. (a *. phi)
  else if x = inf then max_float
  else if x = -.inf then x
  else next_down x

let[@inline] widen_up x =
  let a = Float.abs x in
  if a >= 0x1p-969 && a <= max_float then x +. (a *. phi)
  else if x = -.inf then -.max_float
  else if x = inf then x
  else next_up x

(* The strict comparisons first: there the sign-bit test of [Float.min]
   cannot fire, so the result is the same without the C calls. *)
let[@inline] fmin (x : float) (y : float) =
  if y > x then x
  else if x > y then y
  else if (not (Float.sign_bit y)) && Float.sign_bit x then if y <> y then y else x
  else if x <> x then x
  else y

let[@inline] fmax (x : float) (y : float) =
  if y > x then y
  else if x > y then x
  else if (not (Float.sign_bit y)) && Float.sign_bit x then if x <> x then x else y
  else if y <> y then y
  else x

let[@inline] mul_dn x y = if x = 0.0 || y = 0.0 then 0.0 else widen_down (x *. y)
let[@inline] mul_up x y = if x = 0.0 || y = 0.0 then 0.0 else widen_up (x *. y)
let[@inline] div_dn x y = if x = 0.0 then 0.0 else widen_down (x /. y)
let[@inline] div_up x y = if x = 0.0 then 0.0 else widen_up (x /. y)

(* Annotated: an inlined polymorphic array access stays generic, and
   boxes the float it stores. *)
let[@inline] set (lo : float array) (hi : float array) i (l : float) (h : float) =
  lo.(i) <- l;
  hi.(i) <- h

let[@inline] set_empty lo hi i = set lo hi i inf (-.inf)
let[@inline] set_entire lo hi i = set lo hi i (-.inf) inf
let[@inline] contains_zero l h = l <= 0.0 && 0.0 <= h

(* [I.add], [I.sub], [I.mul], [I.div] of [a] and [b] into slot [i]. *)
let[@inline] add_into lo hi i al ah bl bh =
  if al > ah || bl > bh then set_empty lo hi i
  else set lo hi i (widen_down (al +. bl)) (widen_up (ah +. bh))

let[@inline] sub_into lo hi i al ah bl bh =
  if al > ah || bl > bh then set_empty lo hi i
  else set lo hi i (widen_down (al -. bh)) (widen_up (ah -. bl))

let[@inline] mul_into lo hi i al ah bl bh =
  if al > ah || bl > bh then set_empty lo hi i
  else
    set lo hi i
      (fmin (fmin (mul_dn al bl) (mul_dn al bh)) (fmin (mul_dn ah bl) (mul_dn ah bh)))
      (fmax (fmax (mul_up al bl) (mul_up al bh)) (fmax (mul_up ah bl) (mul_up ah bh)))

let[@inline] div_into lo hi i al ah bl bh =
  if al > ah || bl > bh then set_empty lo hi i
  else if bl = 0.0 && bh = 0.0 then set_empty lo hi i
  else if contains_zero bl bh then
    if bl = 0.0 then
      if al >= 0.0 then set lo hi i (div_dn al bh) inf
      else if ah <= 0.0 then set lo hi i (-.inf) (div_up ah bh)
      else set_entire lo hi i
    else if bh = 0.0 then
      if al >= 0.0 then set lo hi i (-.inf) (div_up al bl)
      else if ah <= 0.0 then set lo hi i (div_dn ah bl) inf
      else set_entire lo hi i
    else set_entire lo hi i
  else
    set lo hi i
      (fmin (fmin (div_dn al bl) (div_dn al bh)) (fmin (div_dn ah bl) (div_dn ah bh)))
      (fmax (fmax (div_up al bl) (div_up al bh)) (fmax (div_up ah bl) (div_up ah bh)))

(* [I.pow_down] / [I.pow_up]: x^n widened, exact for 0 and infinities. *)
let[@inline] pow_dn x n =
  if x = 0.0 then 0.0
  else if x = inf then inf
  else if x = -.inf then
    if n mod 2 = 0 then inf else -.inf
  else widen_down (widen_down (x ** float_of_int n))

let[@inline] pow_up x n =
  if x = 0.0 then 0.0
  else if x = inf then inf
  else if x = -.inf then
    if n mod 2 = 0 then inf else -.inf
  else widen_up (widen_up (x ** float_of_int n))

(* [I.pow_int a n] into slot [i]; a negative exponent is [I.inv] of the
   positive power, as there. *)
let[@inline] pow_into lo hi i al ah n =
  if al > ah then set_empty lo hi i
  else begin
    let m = abs n in
    if m = 0 then set lo hi i 1.0 1.0
    else if m = 1 then set lo hi i al ah
    else if m mod 2 = 0 then
      (* [I.abs a], then its endpoints to the m-th power *)
      if al >= 0.0 then set lo hi i (pow_dn al m) (pow_up ah m)
      else if ah <= 0.0 then set lo hi i (pow_dn (-.ah) m) (pow_up (-.al) m)
      else set lo hi i (pow_dn 0.0 m) (pow_up (fmax (-.al) ah) m)
    else set lo hi i (pow_dn al m) (pow_up ah m);
    if n < 0 then div_into lo hi i 1.0 1.0 lo.(i) hi.(i)
  end

(* Sign-preserving nth root with outward widening (n >= 1). *)
let[@inline] root_dn x n =
  if x = 0.0 then 0.0
  else if x = inf then inf
  else if x = -.inf then -.inf
  else
    let r =
      if x >= 0.0 then x ** (1.0 /. float_of_int n)
      else -.((-.x) ** (1.0 /. float_of_int n))
    in
    widen_down (widen_down r)

let[@inline] root_up x n =
  if x = 0.0 then 0.0
  else if x = inf then inf
  else if x = -.inf then -.inf
  else
    let r =
      if x >= 0.0 then x ** (1.0 /. float_of_int n)
      else -.((-.x) ** (1.0 /. float_of_int n))
    in
    widen_up (widen_up r)

(* The checks of [I.make], with its exceptions. *)
let[@inline] check_make l h =
  if Float.is_nan l || Float.is_nan h then invalid_arg "Interval.make: nan endpoint"
  else if l > h then invalid_arg "Interval.make: lo > hi"

let set_itv lo hi i (r : I.t) = set lo hi i r.I.lo r.I.hi

(* ------------------------------------------------------------------ *)
(* Forward evaluation                                                  *)
(* ------------------------------------------------------------------ *)

(* Node [i]'s enclosure from its operands' (every op but Var).  The
   transcendental and periodic functions stay with [Interval]. *)
let forward_op code bs consts lo hi i =
  let w = code.(i) and a = i - 1 and b = bs.(i) in
  match w land 15 with
  | 0 ->
    let c = 3 * (w asr 4) in
    set lo hi i consts.(c) consts.(c + 1)
  | 2 ->
    let al = lo.(a) and ah = hi.(a) in
    if al > ah then set_empty lo hi i else set lo hi i (-.ah) (-.al)
  | 3 -> add_into lo hi i lo.(a) hi.(a) lo.(b) hi.(b)
  | 4 -> sub_into lo hi i lo.(a) hi.(a) lo.(b) hi.(b)
  | 5 -> mul_into lo hi i lo.(a) hi.(a) lo.(b) hi.(b)
  | 6 -> div_into lo hi i lo.(a) hi.(a) lo.(b) hi.(b)
  | 7 -> pow_into lo hi i lo.(a) hi.(a) b
  | op ->
    let x = I.unsafe_make lo.(a) hi.(a) in
    set_itv lo hi i
      (match op with
      | 8 -> I.sqrt x
      | 9 -> I.exp x
      | 10 -> I.log x
      | 11 -> I.sin x
      | _ -> I.cos x)

let forward_box_node code bs consts lo hi (box : Box.t) i =
  let w = code.(i) in
  if w land 15 = 1 then begin
    let iv = box.(w asr 4) in
    set lo hi i iv.I.lo iv.I.hi
  end
  else forward_op code bs consts lo hi i

let nodes tp = Array.length tp.code

(* The tape's enclosures over the box, into [s.lo]/[s.hi]. *)
let forward_box tp s box =
  let code = tp.code and bs = tp.bs and consts = tp.consts in
  let lo = s.lo and hi = s.hi in
  for i = 0 to nodes tp - 1 do
    forward_box_node code bs consts lo hi box i
  done

(* At a point: variables are [I.of_float], with its nan check. *)
let forward_point tp s (p : float array) =
  let code = tp.code and bs = tp.bs and consts = tp.consts in
  let lo = s.lo and hi = s.hi in
  for i = 0 to nodes tp - 1 do
    let w = code.(i) in
    if w land 15 = 1 then begin
      let x = p.(w asr 4) in
      if Float.is_nan x then invalid_arg "Interval.of_float: nan";
      set lo hi i x x
    end
    else forward_op code bs consts lo hi i
  done

(* [Expr.eval_float] of the tape into [s.lo]; the root's value is last. *)
let eval_float tp s (p : float array) =
  let code = tp.code and bs = tp.bs and consts = tp.consts and v = s.lo in
  for i = 0 to nodes tp - 1 do
    let w = code.(i) and a = i - 1 and b = bs.(i) in
    v.(i) <-
      (match w land 15 with
      | 0 -> consts.((3 * (w asr 4)) + 2)
      | 1 -> p.(w asr 4)
      | 2 -> -.v.(a)
      | 3 -> v.(a) +. v.(b)
      | 4 -> v.(a) -. v.(b)
      | 5 -> v.(a) *. v.(b)
      | 6 -> v.(a) /. v.(b)
      | 7 -> v.(a) ** float_of_int b
      | 8 -> Float.sqrt v.(a)
      | 9 -> Float.exp v.(a)
      | 10 -> Float.log v.(a)
      | 11 -> Float.sin v.(a)
      | _ -> Float.cos v.(a))
  done

(* ------------------------------------------------------------------ *)
(* Compilation, fused with a forward pass                              *)
(* ------------------------------------------------------------------ *)

(* Appends a node to the tape being built in [s]; returns its index. *)
let push_node s op b arg =
  let i = s.nodes in
  s.bcode.(i) <- op lor (arg lsl 4);
  s.bbs.(i) <- b;
  s.nodes <- i + 1;
  i

let push_const s q =
  let c = s.nconsts in
  let iv = I.of_rational q in
  s.bconsts.(3 * c) <- iv.I.lo;
  s.bconsts.((3 * c) + 1) <- iv.I.hi;
  s.bconsts.((3 * c) + 2) <- Q.to_float q;
  s.nconsts <- c + 1;
  c

(* Emits [e]'s nodes and returns its root; with [eval], also evaluates
   each node over [box] as soon as it is emitted. *)
let rec emit s ~eval box (e : Expr.t) =
  let i =
    match e with
    | Expr.Const q -> push_node s 0 0 (push_const s q)
    | Expr.Var v -> push_node s 1 0 v
    | Expr.Neg a -> emit_unary s ~eval box 2 a 0
    | Expr.Add (a, b) -> emit_binary s ~eval box 3 a b
    | Expr.Sub (a, b) -> emit_binary s ~eval box 4 a b
    | Expr.Mul (a, b) -> emit_binary s ~eval box 5 a b
    | Expr.Div (a, b) -> emit_binary s ~eval box 6 a b
    | Expr.Pow (a, n) ->
      (* the exponent, which may be any int, takes the b word *)
      let first = s.nodes in
      ignore (emit s ~eval box a);
      push_node s 7 n first
    | Expr.Sqrt a -> emit_unary s ~eval box 8 a 0
    | Expr.Exp a -> emit_unary s ~eval box 9 a 0
    | Expr.Log a -> emit_unary s ~eval box 10 a 0
    | Expr.Sin a -> emit_unary s ~eval box 11 a 0
    | Expr.Cos a -> emit_unary s ~eval box 12 a 0
  in
  if eval then forward_box_node s.bcode s.bbs s.bconsts s.lo s.hi box i;
  i

(* The operand [a] is always the node just below: emitted last. *)
and emit_unary s ~eval box op a arg =
  let first = s.nodes in
  ignore (emit s ~eval box a);
  push_node s op first arg

and emit_binary s ~eval box op a b =
  let ib = emit s ~eval box b in
  ignore (emit s ~eval box a);
  push_node s op ib 0

(* Tape [j], built by [s] (which [fit] [t]). *)
let build t j s ~eval box =
  s.nodes <- 0;
  s.nconsts <- 0;
  ignore (emit s ~eval box t.rels.(j).Expr.expr);
  let tp =
    {
      code = Array.sub s.bcode 0 s.nodes;
      bs = Array.sub s.bbs 0 s.nodes;
      consts = Array.sub s.bconsts 0 (3 * s.nconsts);
    }
  in
  t.tapes.(j) <- tp;
  tp

let tape t j s =
  let tp = t.tapes.(j) in
  if tp != unbuilt then tp else build t j s ~eval:false [||]

(* ------------------------------------------------------------------ *)
(* Backward projection                                                 *)
(* ------------------------------------------------------------------ *)

let[@inline] same_bits x y = Int64.bits_of_float x = Int64.bits_of_float y

(* Sweeps the tape from the root down: each node's enclosure is
   intersected with what its parent requires of it (empty: raise), and
   the operands' requirements are projected from the result.  Variables
   narrow [box] in place. *)
let backward tp s (box : Box.t) (op : Linexpr.op) =
  let code = tp.code and bs = tp.bs in
  let lo = s.lo and hi = s.hi and rlo = s.rlo and rhi = s.rhi in
  let root = nodes tp - 1 in
  (match op with
  | Linexpr.Le | Linexpr.Lt -> set rlo rhi root (-.inf) 0.0
  | Linexpr.Ge | Linexpr.Gt -> set rlo rhi root 0.0 inf
  | Linexpr.Eq -> set rlo rhi root 0.0 0.0);
  let i = ref root in
  while !i >= 0 do
    let n = !i in
    let w = code.(n) in
    let fl = lo.(n) and fh = hi.(n) and ql = rlo.(n) and qh = rhi.(n) in
    if fl > fh || ql > qh then raise Empty;
    let rl = fmax fl ql and rh = fmin fh qh in
    if rl > rh then raise Empty;
    i := n - 1;
    let a = n - 1 and b = bs.(n) in
    match w land 15 with
    | 0 -> ()
    | 1 ->
      let v = w asr 4 in
      let old = box.(v) in
      if old.I.lo > old.I.hi then raise Empty;
      let nl = fmax old.I.lo rl and nh = fmin old.I.hi rh in
      if nl > nh then raise Empty;
      if not (same_bits nl old.I.lo && same_bits nh old.I.hi) then
        box.(v) <- I.unsafe_make nl nh
    | 2 -> set rlo rhi a (-.rh) (-.rl)
    | 3 ->
      sub_into rlo rhi a rl rh lo.(b) hi.(b);
      sub_into rlo rhi b rl rh lo.(a) hi.(a)
    | 4 ->
      add_into rlo rhi a rl rh lo.(b) hi.(b);
      sub_into rlo rhi b lo.(a) hi.(a) rl rh
    | 5 ->
      (* When both the product's target and the other factor contain
         zero, any value of this factor is feasible; otherwise extended
         division gives a sound projection. *)
      let r0 = contains_zero rl rh in
      if r0 && contains_zero lo.(b) hi.(b) then set_entire rlo rhi a
      else div_into rlo rhi a rl rh lo.(b) hi.(b);
      if r0 && contains_zero lo.(a) hi.(a) then set_entire rlo rhi b
      else div_into rlo rhi b rl rh lo.(a) hi.(a)
    | 6 ->
      mul_into rlo rhi a rl rh lo.(b) hi.(b);
      if contains_zero rl rh && contains_zero lo.(a) hi.(a) then set_entire rlo rhi b
      else div_into rlo rhi b lo.(a) hi.(a) rl rh
    | 7 ->
      let e = b in
      if e = 0 then i := (w asr 4) - 1
      else begin
        (* a^e in r, so a^|e| in r, or in 1/r for e < 0 *)
        if e < 0 then div_into rlo rhi a 1.0 1.0 rl rh else set rlo rhi a rl rh;
        let m = abs e and ql = rlo.(a) and qh = rhi.(a) in
        if m mod 2 = 1 then begin
          if ql > qh then set_empty rlo rhi a
          else begin
            let l = root_dn ql m and h = root_up qh m in
            check_make l h;
            set rlo rhi a l h
          end
        end
        else begin
          (* The nonnegative roots of r, then their sign from a. *)
          if ql > qh then raise Empty;
          let pl = fmax ql 0.0 and ph = fmin qh inf in
          if pl > ph then raise Empty;
          let sl = fmax 0.0 (root_dn pl m) and sh = root_up ph m in
          check_make sl sh;
          if lo.(a) >= 0.0 then set rlo rhi a sl sh
          else if hi.(a) <= 0.0 then set rlo rhi a (-.sh) (-.sl)
          else set rlo rhi a (fmin (-.sh) sl) (fmax (-.sl) sh)
        end
      end
    | 8 ->
      let rr = I.inter (I.unsafe_make rl rh) (I.make 0.0 inf) in
      if I.is_empty rr then raise Empty;
      set_itv rlo rhi a (I.sqr rr)
    | 9 -> set_itv rlo rhi a (I.log (I.unsafe_make rl rh))
    | 10 -> set_itv rlo rhi a (I.exp (I.unsafe_make rl rh))
    | _ ->
      (* No projection through sin and cos: sound, just not contracting
         through them. *)
      i := b - 1
  done

(* ------------------------------------------------------------------ *)
(* Contraction                                                         *)
(* ------------------------------------------------------------------ *)

(* One forward-backward pass of relation [j]; the first one also builds
   its tape.  Whether the box is then empty is [dead]: a pass narrows a
   variable only to a nonempty interval (it raises [Empty] instead), so
   the box is empty afterwards iff it was when the contraction began. *)
let revise t s box ~dead j =
  match
    let tp = t.tapes.(j) in
    let tp =
      if tp != unbuilt then begin
        forward_box tp s box;
        tp
      end
      else build t j s ~eval:true box
    in
    backward tp s box t.rels.(j).Expr.op
  with
  | () -> not dead
  | exception Empty -> false

let snapshot s (box : Box.t) =
  let n = Array.length box in
  if Array.length s.wlo < n then begin
    s.wlo <- Array.make n 0.0;
    s.whi <- Array.make n 0.0
  end;
  for v = 0 to n - 1 do
    let iv = box.(v) in
    s.wlo.(v) <- iv.I.lo;
    s.whi.(v) <- iv.I.hi
  done

(* Some variable is meaningfully narrower than at the snapshot (widths as
   [I.width]: 0 for empty). *)
let volume_reduced s (box : Box.t) =
  let improved = ref false in
  for v = 0 to Array.length box - 1 do
    let iv = box.(v) and ol = s.wlo.(v) and oh = s.whi.(v) in
    let now_empty = iv.I.lo > iv.I.hi and was_empty = ol > oh in
    let nw = if now_empty then 0.0 else iv.I.hi -. iv.I.lo
    and ow = if was_empty then 0.0 else oh -. ol in
    if nw < 0.9 *. ow || (now_empty && not was_empty) then improved := true
  done;
  !improved

let contract ?(max_rounds = 10) ?(budget = Budget.unlimited) ?scratch:s t box =
  let s = match s with Some s -> s | None -> scratch () in
  fit s t;
  let revisions = ref 0 in
  let nrels = Array.length t.rels and dead = Box.is_empty box in
  let rec revise_from j =
    j >= nrels
    || begin
      incr revisions;
      revise t s box ~dead j && revise_from (j + 1)
    end
  in
  let rec loop round =
    if round >= max_rounds then true
    else begin
      Budget.tick budget;
      snapshot s box;
      if not (revise_from 0) then false
      else if volume_reduced s box then loop (round + 1)
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

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)
(* ------------------------------------------------------------------ *)

(* [Expr.certainly_holds] of [op], given the tape's root enclosure. *)
let root_holds tp s (op : Linexpr.op) =
  let root = nodes tp - 1 in
  let l = s.lo.(root) and h = s.hi.(root) in
  if l > h then false
  else
    match op with
    | Linexpr.Le -> h <= 0.0
    | Linexpr.Lt -> h < 0.0
    | Linexpr.Ge -> l >= 0.0
    | Linexpr.Gt -> l > 0.0
    | Linexpr.Eq -> l = 0.0 && h = 0.0

(* [Expr.holds_float] of [op], given the tape's root value. *)
let root_within ~tol tp s (op : Linexpr.op) =
  let v = s.lo.(nodes tp - 1) in
  if not (Float.is_finite v) then false
  else
    match op with
    | Linexpr.Le -> v <= tol
    | Linexpr.Lt -> v < tol
    | Linexpr.Ge -> v >= -.tol
    | Linexpr.Gt -> v > -.tol
    | Linexpr.Eq -> Float.abs v <= tol

(* The certificates walk the relations with top-level loops: a closure
   per call would allocate, and the point certificate runs per sample. *)
let rec box_holds_from t s box j =
  j >= Array.length t.rels
  || begin
    let tp = tape t j s in
    forward_box tp s box;
    root_holds tp s t.rels.(j).Expr.op && box_holds_from t s box (j + 1)
  end

let rec point_holds_from t s p j =
  j >= Array.length t.rels
  || begin
    let tp = tape t j s in
    forward_point tp s p;
    root_holds tp s t.rels.(j).Expr.op && point_holds_from t s p (j + 1)
  end

let rec feasible_from ~tol t s p j =
  j >= Array.length t.rels
  || begin
    let tp = tape t j s in
    eval_float tp s p;
    root_within ~tol tp s t.rels.(j).Expr.op && feasible_from ~tol t s p (j + 1)
  end

let certified_box t s box =
  fit s t;
  box_holds_from t s box 0

let certified_at t s p =
  fit s t;
  point_holds_from t s p 0

let feasible_at ~tol t s p =
  fit s t;
  feasible_from ~tol t s p 0

let enclosure t s box j =
  fit s t;
  let tp = tape t j s in
  forward_box tp s box;
  let root = nodes tp - 1 in
  I.unsafe_make s.lo.(root) s.hi.(root)

let value_at t s p j =
  fit s t;
  let tp = tape t j s in
  eval_float tp s p;
  s.lo.(nodes tp - 1)
