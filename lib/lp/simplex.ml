module Q = Absolver_numeric.Rational
module DR = Absolver_numeric.Delta_rational
module IM = Map.Make (Int)
module Budget = Absolver_resource.Budget
module Faults = Absolver_resource.Faults
module Err = Absolver_resource.Absolver_error

type bound = { value : DR.t; tag : int }

(* CSR tableau row (DESIGN.md Sec. 16): column indices sorted ascending in
   [idx.(0..len-1)] with the matching coefficients in [coef]. Coefficients
   are never zero — every producer drops exact cancellations — and the
   ascending order is load-bearing: iterating a row left to right visits
   columns in exactly the order the previous [Q.t IM.t] representation
   folded them, which is what keeps Bland's rule (and therefore the whole
   pivot history and every conflict core) bit-for-bit identical. *)
type row = {
  idx : int array;
  coef : Q.t array;
  len : int;
}

(* Physical sentinel for "not basic". Never mutated, compared with [==]. *)
let no_row = { idx = [||]; coef = [||]; len = 0 }

(* Growable int stack for the per-column occurrence lists. *)
type ivec = { mutable a : int array; mutable n : int }

let iv_make () = { a = [||]; n = 0 }

let iv_push v x =
  if v.n = Array.length v.a then begin
    let c = if v.n = 0 then 8 else 2 * v.n in
    let b = Array.make c 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

type t = {
  mutable nvars : int;
  (* [rows.(v) != no_row] iff [v] is basic, with [v = sum coef.(i) * x_(idx.(i))]
     over nonbasic variables. *)
  mutable rows : row array;
  (* [occ.(j)] lists the basic variables whose rows may mention column [j]:
     a superset with stale entries and duplicates, compacted lazily by
     [occ_iter]. The invariant is one-sided — every live (row, column)
     incidence is registered — so occurrence-driven traversals see exactly
     the rows the old dense [for z = 0 to nvars-1] scans saw. *)
  mutable occ : ivec array;
  (* Per-variable generation stamps deduplicating one [occ_iter] pass. *)
  mutable mark : int array;
  mutable gen : int;
  mutable lower : bound option array;
  mutable upper : bound option array;
  mutable beta : DR.t array;
  defs : int Linexpr.Form_tbl.t; (* constant-free linear form -> slack var *)
  mutable trail : (int * bound_kind * bound option) list list;
  mutable pivots : int;
  mutable budget : Budget.t;
}

and bound_kind = Lower | Upper

type result = Feasible | Infeasible of int list

let create ?(budget = Budget.unlimited) () =
  {
    nvars = 0;
    rows = Array.make 16 no_row;
    occ = Array.init 16 (fun _ -> iv_make ());
    mark = Array.make 16 0;
    gen = 0;
    lower = Array.make 16 None;
    upper = Array.make 16 None;
    beta = Array.make 16 DR.zero;
    defs = Linexpr.Form_tbl.create 16;
    trail = [];
    pivots = 0;
    budget;
  }

let set_budget t budget = t.budget <- budget

let grow t n =
  let cap = Array.length t.rows in
  if n > cap then begin
    let c = max n (2 * cap) in
    let ext a fill =
      let b = Array.make c fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.rows <- ext t.rows no_row;
    t.occ <-
      Array.init c (fun i -> if i < cap then t.occ.(i) else iv_make ());
    t.mark <- ext t.mark 0;
    t.lower <- ext t.lower None;
    t.upper <- ext t.upper None;
    t.beta <- ext t.beta DR.zero
  end

let new_var t =
  let v = t.nvars in
  grow t (v + 1);
  t.nvars <- v + 1;
  v

let ensure_vars t n = while t.nvars < n do ignore (new_var t) done
let is_basic t v = t.rows.(v) != no_row
let value t v = t.beta.(v)
let num_pivots t = t.pivots

(* Position of column [y] in [r], or -1. Binary search over the sorted
   index array. *)
let row_find r y =
  let lo = ref 0 and hi = ref r.len in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) lsr 1 in
    if r.idx.(mid) < y then lo := mid + 1 else hi := mid
  done;
  if !lo < r.len && r.idx.(!lo) = y then !lo else -1

(* Record that basic variable [b] has (or may have gained) an entry in
   every column of [r]. Over-registration is fine: [occ_iter] drops stale
   and duplicate entries as it walks. *)
let register_cols t b r =
  for i = 0 to r.len - 1 do
    iv_push t.occ.(r.idx.(i)) b
  done

(* Visit every basic variable [z] whose row currently contains column [y],
   as [f z row position]. Compacts [occ.(y)] in place: duplicates (via the
   generation stamp) and dead entries (no longer basic, or the row lost
   the column) are dropped. [f] may replace rows and push into other
   columns' occurrence lists, but must not add entries for column [y]. *)
let occ_iter t y f =
  let v = t.occ.(y) in
  t.gen <- t.gen + 1;
  let g = t.gen in
  let w = ref 0 in
  for i = 0 to v.n - 1 do
    let z = v.a.(i) in
    if t.mark.(z) <> g then begin
      t.mark.(z) <- g;
      let r = t.rows.(z) in
      if r != no_row then begin
        let p = row_find r y in
        if p >= 0 then begin
          v.a.(!w) <- z;
          incr w;
          f z r p
        end
      end
    end
  done;
  v.n <- !w

(* Replace basic variables in a term map by their defining rows. Cold
   path (definition time only), so the sparse accumulator is a plain
   int-keyed map; hot-loop row algebra below works on the flat arrays. *)
let expand t terms =
  IM.fold
    (fun v q acc ->
      let r = t.rows.(v) in
      if r == no_row then
        IM.update v
          (fun cur ->
            let s = Q.add (Option.value ~default:Q.zero cur) q in
            if Q.is_zero s then None else Some s)
          acc
      else begin
        let acc = ref acc in
        for i = 0 to r.len - 1 do
          let j = r.idx.(i) and c = r.coef.(i) in
          acc :=
            IM.update j
              (fun cur ->
                let s = Q.add (Option.value ~default:Q.zero cur) (Q.mul q c) in
                if Q.is_zero s then None else Some s)
              !acc
        done;
        !acc
      end)
    terms IM.empty

(* Freeze a term map into a CSR row ([IM.bindings] is ascending). *)
let row_of_im m =
  let n = IM.cardinal m in
  let idx = Array.make n 0 in
  let coef = Array.make n Q.zero in
  let i = ref 0 in
  IM.iter
    (fun j c ->
      idx.(!i) <- j;
      coef.(!i) <- c;
      incr i)
    m;
  { idx; coef; len = n }

let eval_row t r =
  let acc = ref DR.zero in
  for i = 0 to r.len - 1 do
    acc := DR.add !acc (DR.scale r.coef.(i) t.beta.(r.idx.(i)))
  done;
  !acc

let define t expr =
  match Linexpr.coeffs expr with
  | [ (v, q) ] when Q.equal q Q.one ->
    ensure_vars t (v + 1);
    v
  | coeffs -> (
    List.iter (fun (v, _) -> ensure_vars t (v + 1)) coeffs;
    match Linexpr.Form_tbl.find_opt t.defs coeffs with
    | Some s -> s
    | None ->
      let terms =
        List.fold_left (fun acc (v, q) -> IM.add v q acc) IM.empty coeffs
      in
      let s = new_var t in
      let row = row_of_im (expand t terms) in
      t.rows.(s) <- row;
      register_cols t s row;
      t.beta.(s) <- eval_row t row;
      Linexpr.Form_tbl.add t.defs coeffs s;
      s)

(* Adjust a nonbasic variable and propagate through dependent rows: only
   the rows registered under column [x] are touched, where the previous
   representation scanned every basic row. *)
let update t x v =
  let theta = DR.sub v t.beta.(x) in
  t.beta.(x) <- v;
  occ_iter t x (fun z r p ->
      t.beta.(z) <- DR.add t.beta.(z) (DR.scale r.coef.(p) theta))

let record t var kind old =
  match t.trail with
  | [] -> () (* no open frame: permanent assertion *)
  | frame :: rest -> t.trail <- ((var, kind, old) :: frame) :: rest

let assert_bound t ~tag x kind value =
  match kind with
  | Lower -> (
    let current = t.lower.(x) in
    let subsumed =
      match current with Some b -> DR.leq value b.value | None -> false
    in
    if subsumed then Feasible
    else
      match t.upper.(x) with
      | Some ub when DR.lt ub.value value -> Infeasible [ tag; ub.tag ]
      | _ ->
        record t x Lower current;
        t.lower.(x) <- Some { value; tag };
        if (not (is_basic t x)) && DR.lt t.beta.(x) value then update t x value;
        Feasible)
  | Upper -> (
    let current = t.upper.(x) in
    let subsumed =
      match current with Some b -> DR.leq b.value value | None -> false
    in
    if subsumed then Feasible
    else
      match t.lower.(x) with
      | Some lb when DR.lt value lb.value -> Infeasible [ tag; lb.tag ]
      | _ ->
        record t x Upper current;
        t.upper.(x) <- Some { value; tag };
        if (not (is_basic t x)) && DR.lt value t.beta.(x) then update t x value;
        Feasible)

let assert_cons t (c : Linexpr.cons) =
  let x = define t (Linexpr.drop_const c.expr) in
  let rhs = Q.neg (Linexpr.const c.expr) in
  (* expr op 0  <=>  (expr - const) op -const *)
  match c.op with
  | Linexpr.Le -> assert_bound t ~tag:c.tag x Upper (DR.of_rational rhs)
  | Linexpr.Lt ->
    assert_bound t ~tag:c.tag x Upper (DR.make rhs Q.minus_one)
  | Linexpr.Ge -> assert_bound t ~tag:c.tag x Lower (DR.of_rational rhs)
  | Linexpr.Gt -> assert_bound t ~tag:c.tag x Lower (DR.make rhs Q.one)
  | Linexpr.Eq -> (
    match assert_bound t ~tag:c.tag x Lower (DR.of_rational rhs) with
    | Infeasible _ as r -> r
    | Feasible -> assert_bound t ~tag:c.tag x Upper (DR.of_rational rhs))

let bound t x = function Lower -> t.lower.(x) | Upper -> t.upper.(x)

(* Replace a bound outright, looser or tighter. The trail records only
   what a frame changed, so a bound replaced under an open frame would be
   restored to a stale value by [pop]: this is a depth-0 operation.
   Refusing a crossed interval keeps every nonbasic variable inside its
   bounds, which is what lets [update] place it like [assert_bound]
   does. *)
let set_bound t x kind b =
  if t.trail <> [] then invalid_arg "Simplex.set_bound: a frame is open";
  let lo, hi =
    match kind with Lower -> (b, t.upper.(x)) | Upper -> (t.lower.(x), b)
  in
  (match (lo, hi) with
  | Some l, Some u when DR.lt u.value l.value ->
    invalid_arg "Simplex.set_bound: lower bound above upper bound"
  | _ -> ());
  (match kind with Lower -> t.lower.(x) <- b | Upper -> t.upper.(x) <- b);
  if not (is_basic t x) then
    match (lo, hi) with
    | Some l, _ when DR.lt t.beta.(x) l.value -> update t x l.value
    | _, Some u when DR.lt u.value t.beta.(x) -> update t x u.value
    | _ -> ()

(* [r] minus its entry at position [p] (column being eliminated), plus
   [c] times [ry]: a sorted two-way merge, dropping exact cancellations.
   This is the inner loop of [pivot]; everything stays in flat arrays. *)
let row_subst r p c ry =
  let n1 = r.len and n2 = ry.len in
  let idx = Array.make (n1 - 1 + n2) 0 in
  let coef = Array.make (n1 - 1 + n2) Q.zero in
  let w = ref 0 in
  let put j q =
    idx.(!w) <- j;
    coef.(!w) <- q;
    incr w
  in
  let i = ref 0 and j = ref 0 in
  while !i < n1 || !j < n2 do
    if !i = p then incr i
    else begin
      let ji = if !i < n1 then r.idx.(!i) else max_int in
      let jj = if !j < n2 then ry.idx.(!j) else max_int in
      if ji < jj then begin
        put ji r.coef.(!i);
        incr i
      end
      else if jj < ji then begin
        put jj (Q.mul c ry.coef.(!j));
        incr j
      end
      else begin
        let s = Q.add r.coef.(!i) (Q.mul c ry.coef.(!j)) in
        if not (Q.is_zero s) then put ji s;
        incr i;
        incr j
      end
    end
  done;
  { idx; coef; len = !w }

(* Pivot basic x with nonbasic y (coefficient a = row(x)(y) <> 0). *)
let pivot t x y =
  t.pivots <- t.pivots + 1;
  Budget.tick t.budget;
  let row_x = t.rows.(x) in
  let px = row_find row_x y in
  let a = row_x.coef.(px) in
  let inv_a = Q.inv a in
  (* y = (1/a) * x - sum_{j<>y} (a_j/a) * x_j; x replaces y in the sorted
     column order ([x] was basic, so it appears in no row, including this
     one). *)
  let n = row_x.len in
  let idx = Array.make n 0 in
  let coef = Array.make n Q.zero in
  let w = ref 0 in
  let placed = ref false in
  let put j q =
    idx.(!w) <- j;
    coef.(!w) <- q;
    incr w
  in
  for i = 0 to n - 1 do
    let j = row_x.idx.(i) in
    if j <> y then begin
      if (not !placed) && x < j then begin
        put x inv_a;
        placed := true
      end;
      put j (Q.neg (Q.mul row_x.coef.(i) inv_a))
    end
  done;
  if not !placed then put x inv_a;
  let row_y = { idx; coef; len = n } in
  t.rows.(x) <- no_row;
  t.rows.(y) <- row_y;
  register_cols t y row_y;
  (* Substitute y in the rows that mention it — exactly the live entries
     of occ.(y). *)
  occ_iter t y (fun z r p ->
      let c = r.coef.(p) in
      t.rows.(z) <- row_subst r p c row_y;
      register_cols t z row_y);
  (* No row mentions y anymore (y is basic; row_y does not contain y). *)
  t.occ.(y).n <- 0

let pivot_and_update t x y v =
  let row_x = t.rows.(x) in
  let a = row_x.coef.(row_find row_x y) in
  let theta = DR.scale (Q.inv a) (DR.sub v t.beta.(x)) in
  t.beta.(x) <- v;
  t.beta.(y) <- DR.add t.beta.(y) theta;
  occ_iter t y (fun z r p ->
      if z <> x then
        t.beta.(z) <- DR.add t.beta.(z) (DR.scale r.coef.(p) theta));
  pivot t x y

let below_lower t v =
  match t.lower.(v) with Some b -> DR.lt t.beta.(v) b.value | None -> false

let above_upper t v =
  match t.upper.(v) with Some b -> DR.lt b.value t.beta.(v) | None -> false

let lower_tag t v = match t.lower.(v) with Some b -> b.tag | None -> assert false
let upper_tag t v = match t.upper.(v) with Some b -> b.tag | None -> assert false

let can_increase t v =
  match t.upper.(v) with Some b -> DR.lt t.beta.(v) b.value | None -> true

let can_decrease t v =
  match t.lower.(v) with Some b -> DR.lt b.value t.beta.(v) | None -> true

exception Found of int

(* Exact feasibility restoration: Bland's rule on the rational tableau. *)
let check t =
  let rec loop () =
    (* Bland's rule: smallest-index violated basic variable. *)
    let violated =
      try
        for v = 0 to t.nvars - 1 do
          if is_basic t v && (below_lower t v || above_upper t v) then
            raise (Found v)
        done;
        None
      with Found v -> Some v
    in
    match violated with
    | None -> Feasible
    | Some x ->
      let row = t.rows.(x) in
      if below_lower t x then begin
        (* Need to increase x: first admissible entering variable in
           ascending column order (Bland). *)
        let pivot_var = ref (-1) in
        let i = ref 0 in
        while !pivot_var < 0 && !i < row.len do
          let y = row.idx.(!i) and a = row.coef.(!i) in
          if
            (Q.sign a > 0 && can_increase t y)
            || (Q.sign a < 0 && can_decrease t y)
          then pivot_var := y;
          incr i
        done;
        if !pivot_var >= 0 then begin
          let target = (Option.get t.lower.(x)).value in
          pivot_and_update t x !pivot_var target;
          loop ()
        end
        else begin
          let conflict = ref [ lower_tag t x ] in
          for i = 0 to row.len - 1 do
            let y = row.idx.(i) in
            conflict :=
              (if Q.sign row.coef.(i) > 0 then upper_tag t y
               else lower_tag t y)
              :: !conflict
          done;
          Infeasible (List.sort_uniq compare !conflict)
        end
      end
      else begin
        (* Need to decrease x. *)
        let pivot_var = ref (-1) in
        let i = ref 0 in
        while !pivot_var < 0 && !i < row.len do
          let y = row.idx.(!i) and a = row.coef.(!i) in
          if
            (Q.sign a < 0 && can_increase t y)
            || (Q.sign a > 0 && can_decrease t y)
          then pivot_var := y;
          incr i
        done;
        if !pivot_var >= 0 then begin
          let target = (Option.get t.upper.(x)).value in
          pivot_and_update t x !pivot_var target;
          loop ()
        end
        else begin
          let conflict = ref [ upper_tag t x ] in
          for i = 0 to row.len - 1 do
            let y = row.idx.(i) in
            conflict :=
              (if Q.sign row.coef.(i) > 0 then lower_tag t y
               else upper_tag t y)
              :: !conflict
          done;
          Infeasible (List.sort_uniq compare !conflict)
        end
      end
  in
  loop ()

let push t = t.trail <- [] :: t.trail

let pop t =
  match t.trail with
  | [] -> invalid_arg "Simplex.pop: no open frame"
  | frame :: rest ->
    t.trail <- rest;
    List.iter
      (fun (v, kind, old) ->
        match kind with
        | Lower -> t.lower.(v) <- old
        | Upper -> t.upper.(v) <- old)
      frame

(* A checkpoint names a trail depth; rollback pops frames until the trail
   is back at that depth. Like [pop], this undoes bound tightenings but
   keeps pivots (they preserve the solution set), which is exactly what
   warm-starting wants: after a budget trip mid-search the session pops
   back to a consistent constraint set without discarding the basis. *)
type checkpoint = int

let checkpoint t = List.length t.trail

let rollback t target =
  let depth = ref (List.length t.trail) in
  if target > !depth then
    invalid_arg "Simplex.rollback: checkpoint is newer than the trail";
  while !depth > target do
    pop t;
    decr depth
  done

let concrete_model t ~vars =
  (* Collect the orderings the concrete delta must preserve. *)
  let pairs = ref [] in
  for v = 0 to t.nvars - 1 do
    (match t.lower.(v) with
    | Some b -> pairs := (b.value, t.beta.(v)) :: !pairs
    | None -> ());
    match t.upper.(v) with
    | Some b -> pairs := (t.beta.(v), b.value) :: !pairs
    | None -> ()
  done;
  let d = DR.concretize_delta !pairs in
  List.map (fun v -> (v, DR.substitute d t.beta.(v))) vars

(* ------------------------------------------------------------------ *)
(* One-shot interface with optional integer branch-and-bound.          *)

type verdict =
  | Sat of (Linexpr.var * Q.t) list
  | Unsat of int list
  | Unknown of Err.t

let branch_tag = -1
let drop_branch_tag tags = List.filter (fun g -> g <> branch_tag) tags

(* Constant constraints never reach the tableau: [Error tag] names the
   first one that is false, [Ok rest] keeps the others in order. *)
let screen constraints =
  match
    List.find_opt
      (fun (c : Linexpr.cons) ->
        Linexpr.is_constant c.expr && not (Linexpr.holds (fun _ -> Q.zero) c))
      constraints
  with
  | Some c -> Error c.tag
  | None ->
    Ok
      (List.filter
         (fun (c : Linexpr.cons) -> not (Linexpr.is_constant c.expr))
         constraints)

exception Bb_budget

let decide t ~int_vars ~vars =
  (* Defensive node cap, kept alongside the caller's budget: a reachable
     condition, so it degrades to a typed Unknown instead of an escaped
     exception. *)
  let bb_nodes = ref 200_000 in
  (* Branch and bound on integer variables on top of rational check;
     every branch is a frame above the depth [decide] started at. *)
  let rec bb () =
    decr bb_nodes;
    if !bb_nodes <= 0 then raise Bb_budget;
    match check t with
    | Infeasible tags -> Unsat tags
    | Feasible -> (
      let vars = Lazy.force vars in
      let model = concrete_model t ~vars in
      let fractional =
        List.find_opt
          (fun v ->
            List.mem v int_vars
            &&
            match List.assoc_opt v model with
            | Some q -> not (Q.is_integer q)
            | None -> false)
          vars
      in
      match fractional with
      | None -> Sat model
      | Some v -> (
        let q = List.assoc v model in
        let branch kind value =
          push t;
          let r =
            match assert_bound t ~tag:branch_tag v kind (DR.of_rational value) with
            | Feasible -> bb ()
            | Infeasible tags -> Unsat tags
          in
          pop t;
          r
        in
        match branch Upper (Q.of_bigint (Q.floor q)) with
        | (Sat _ | Unknown _) as left -> left
        | Unsat tags_l -> (
          match branch Lower (Q.of_bigint (Q.ceil q)) with
          | (Sat _ | Unknown _) as right -> right
          | Unsat tags_r ->
            Unsat (List.sort_uniq compare (drop_branch_tag (tags_l @ tags_r))))))
  in
  let cp = checkpoint t in
  match bb () with
  | Unsat tags -> Unsat (drop_branch_tag tags)
  | (Sat _ | Unknown _) as v -> v
  | exception Bb_budget ->
    rollback t cp;
    Unknown (Err.Out_of_budget Err.Steps)
  | exception Budget.Exhausted e ->
    rollback t cp;
    Unknown e

let solve_system ?(int_vars = []) ?(budget = Budget.unlimited) constraints =
  match screen constraints with
  | Error tag -> (Unsat [ tag ], 0)
  | Ok constraints ->
    let t = create ~budget () in
    let vars =
      List.sort_uniq compare
        (List.concat_map (fun (c : Linexpr.cons) -> Linexpr.vars c.expr) constraints)
    in
    (match vars with [] -> () | vs -> ensure_vars t (List.fold_left max 0 vs + 1));
    let rec assert_all = function
      | [] -> None
      | c :: rest -> (
        match assert_cons t c with
        | Feasible -> assert_all rest
        | Infeasible tags -> Some tags)
    in
    let verdict =
      match
        Faults.hit "lp.solve_system" budget;
        assert_all constraints
      with
      | exception Budget.Exhausted e -> Unknown e
      | Some tags -> Unsat (drop_branch_tag tags)
      | None -> decide t ~int_vars ~vars:(Lazy.from_val vars)
    in
    (verdict, t.pivots)
