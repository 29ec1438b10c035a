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
  defs : (string, int) Hashtbl.t; (* canonical expression -> slack var *)
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
    defs = Hashtbl.create 16;
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

let canonical_key terms =
  let buf = Buffer.create 64 in
  IM.iter
    (fun v q ->
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf ':';
      Buffer.add_string buf (Q.to_string q);
      Buffer.add_char buf ';')
    terms;
  Buffer.contents buf

let define t expr =
  let terms =
    List.fold_left (fun acc (v, q) -> IM.add v q acc) IM.empty (Linexpr.coeffs expr)
  in
  match IM.bindings terms with
  | [ (v, q) ] when Q.equal q Q.one ->
    ensure_vars t (v + 1);
    v
  | bindings ->
    List.iter (fun (v, _) -> ensure_vars t (v + 1)) bindings;
    let key = canonical_key terms in
    (match Hashtbl.find_opt t.defs key with
    | Some s -> s
    | None ->
      let s = new_var t in
      let row = row_of_im (expand t terms) in
      t.rows.(s) <- row;
      register_cols t s row;
      t.beta.(s) <- eval_row t row;
      Hashtbl.add t.defs key s;
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

exception Bb_budget

let solve_system ?(int_vars = []) ?(budget = Budget.unlimited) constraints =
  (* Constant constraints never reach the tableau. *)
  let const_conflict =
    List.find_opt
      (fun (c : Linexpr.cons) ->
        Linexpr.is_constant c.expr && not (Linexpr.holds (fun _ -> Q.zero) c))
      constraints
  in
  match const_conflict with
  | Some c -> (Unsat [ c.tag ], 0)
  | None ->
    let constraints =
      List.filter (fun (c : Linexpr.cons) -> not (Linexpr.is_constant c.expr)) constraints
    in
    let t = create ~budget () in
    let structural =
      List.sort_uniq compare (List.concat_map (fun (c : Linexpr.cons) -> Linexpr.vars c.expr) constraints)
    in
    (match structural with [] -> () | vs -> ensure_vars t (List.fold_left max 0 vs + 1));
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
      | Some tags -> Unsat (List.filter (fun g -> g <> branch_tag) tags)
      | None -> (
        (* Defensive node cap, kept alongside the caller's budget: a
           reachable condition, so it degrades to a typed Unknown instead
           of an escaped exception. *)
        let bb_nodes = ref 200_000 in
        (* Branch and bound on integer variables on top of rational check. *)
        let rec bb () =
          decr bb_nodes;
          if !bb_nodes <= 0 then raise Bb_budget;
          match check t with
          | Infeasible tags -> Unsat tags
          | Feasible -> (
            let model = concrete_model t ~vars:structural in
            let fractional =
              List.find_opt
                (fun v ->
                  List.mem v int_vars
                  &&
                  match List.assoc_opt v model with
                  | Some q -> not (Q.is_integer q)
                  | None -> false)
                structural
            in
            match fractional with
            | None -> Sat model
            | Some v ->
              let q = List.assoc v model in
              let lo = Q.of_bigint (Q.floor q) and hi = Q.of_bigint (Q.ceil q) in
              push t;
              let left =
                match assert_bound t ~tag:branch_tag v Upper (DR.of_rational lo) with
                | Feasible -> bb ()
                | Infeasible tags -> Unsat tags
              in
              pop t;
              (match left with
              | Sat _ | Unknown _ -> left
              | Unsat tags_l -> (
                push t;
                let right =
                  match
                    assert_bound t ~tag:branch_tag v Lower (DR.of_rational hi)
                  with
                  | Feasible -> bb ()
                  | Infeasible tags -> Unsat tags
                in
                pop t;
                match right with
                | Sat _ | Unknown _ -> right
                | Unsat tags_r ->
                  Unsat
                    (List.sort_uniq compare
                       (List.filter (fun g -> g <> branch_tag) (tags_l @ tags_r))))))
        in
        match bb () with
        | Sat model -> Sat model
        | Unsat tags -> Unsat (List.filter (fun g -> g <> branch_tag) tags)
        | Unknown _ as u -> u
        | exception Bb_budget ->
          Unknown (Err.Out_of_budget Err.Steps)
        | exception Budget.Exhausted e -> Unknown e)
    in
    (verdict, t.pivots)

(* ------------------------------------------------------------------ *)
(* Primal simplex optimization over the bounded-variable tableau.      *)

type opt_result =
  | O_infeasible of int list
  | O_unbounded
  | O_optimal of DR.t * (Linexpr.var * Q.t) list

let lower_value t v = Option.map (fun b -> b.value) t.lower.(v)
let upper_value t v = Option.map (fun b -> b.value) t.upper.(v)

(* Maximum admissible increase of beta(v) (None = unbounded). *)
let headroom_up t v =
  match upper_value t v with
  | None -> None
  | Some u -> Some (DR.sub u t.beta.(v))

let headroom_down t v =
  match lower_value t v with
  | None -> None
  | Some l -> Some (DR.sub t.beta.(v) l)

let maximize t objective =
  match check t with
  | Infeasible tags -> O_infeasible tags
  | Feasible ->
    let z = define t (Linexpr.drop_const objective) in
    (* [define] keeps beta consistent, but z may be nonbasic (objective is
       a single variable): when it has a row the entering scan walks it in
       ascending column order (Bland); a nonbasic z behaves as the trivial
       row {z -> 1}. *)
    let rec loop iterations =
      if iterations > 100_000 then O_unbounded (* defensive; Bland prevents this *)
      else begin
        (* Entering variable: Bland's rule. *)
        let entering =
          if t.rows.(z) == no_row then
            match headroom_up t z with
            | Some h when DR.compare h DR.zero <= 0 -> None
            | _ -> Some (z, `Up, Q.one)
          else begin
            let row = t.rows.(z) in
            let res = ref None in
            let i = ref 0 in
            while Option.is_none !res && !i < row.len do
              let y = row.idx.(!i) and a = row.coef.(!i) in
              (if y <> z then
                 if
                   Q.sign a > 0
                   && (match headroom_up t y with
                      | Some h -> DR.compare h DR.zero > 0
                      | None -> true)
                 then res := Some (y, `Up, a)
                 else if
                   Q.sign a < 0
                   && (match headroom_down t y with
                      | Some h -> DR.compare h DR.zero > 0
                      | None -> true)
                 then res := Some (y, `Down, a));
              incr i
            done;
            !res
          end
        in
        match entering with
        | None ->
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
          let model =
            List.map
              (fun v -> (v, DR.substitute d t.beta.(v)))
              (List.init t.nvars Fun.id)
          in
          O_optimal (DR.add t.beta.(z) (DR.of_rational (Linexpr.const objective)), model)
        | Some (y, dir, obj_coeff) -> (
          (* Ratio test: how far can y move before its own bound or a basic
             variable's bound blocks. The scan stays dense and ascending in
             the basic index — identical tie-breaking to the previous
             representation (ties replace only on strictly smaller limit). *)
          let own_limit =
            match dir with `Up -> headroom_up t y | `Down -> headroom_down t y
          in
          let blocking = ref None in
          let limit = ref own_limit in
          let consider cand_limit var target =
            match cand_limit with
            | None -> ()
            | Some cl -> (
              match !limit with
              | Some cur when DR.compare cur cl <= 0 -> ()
              | _ ->
                limit := Some cl;
                blocking := Some (var, target))
          in
          (* The objective variable itself may be bounded (a hash-consed
             slack shared with a constraint): its upper bound blocks the
             increase like any basic bound. *)
          (if t.rows.(z) != no_row then
             match upper_value t z with
             | None -> ()
             | Some u ->
               let a_abs = Q.abs obj_coeff in
               let room = DR.sub u t.beta.(z) in
               consider (Some (DR.scale (Q.inv a_abs) room)) z u);
          for b = 0 to t.nvars - 1 do
            if b <> z && b <> y then begin
              let rowb = t.rows.(b) in
              if rowb != no_row then begin
                let p = row_find rowb y in
                if p >= 0 then begin
                  let coeff = rowb.coef.(p) in
                  (* beta(b) changes by coeff * delta_y; delta_y is
                     positive for `Up, negative for `Down. *)
                  let effective =
                    match dir with
                    | `Up -> Q.sign coeff
                    | `Down -> -Q.sign coeff
                  in
                  if effective > 0 then begin
                    (* b increases: blocked by upper(b). *)
                    match upper_value t b with
                    | None -> ()
                    | Some u ->
                      let room = DR.sub u t.beta.(b) in
                      let cl = DR.scale (Q.inv (Q.abs coeff)) room in
                      consider (Some cl) b u
                  end
                  else if effective < 0 then begin
                    match lower_value t b with
                    | None -> ()
                    | Some l ->
                      let room = DR.sub t.beta.(b) l in
                      let cl = DR.scale (Q.inv (Q.abs coeff)) room in
                      consider (Some cl) b l
                  end
                end
              end
            end
          done;
          match (!limit, !blocking) with
          | None, _ -> O_unbounded
          | Some step, None ->
            (* y's own bound blocks: move y there. *)
            let target =
              match dir with
              | `Up -> DR.add t.beta.(y) step
              | `Down -> DR.sub t.beta.(y) step
            in
            update t y target;
            loop (iterations + 1)
          | Some _, Some (b, target) ->
            (* Basic b hits its bound first: pivot b out, y in. *)
            pivot_and_update t b y target;
            loop (iterations + 1))
      end
    in
    loop 0

let minimize_obj t objective =
  match maximize t (Linexpr.neg objective) with
  | O_optimal (v, model) -> O_optimal (DR.neg v, model)
  | (O_infeasible _ | O_unbounded) as r -> r
