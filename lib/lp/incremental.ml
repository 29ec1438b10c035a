module Q = Absolver_numeric.Rational
module DR = Absolver_numeric.Delta_rational
module Budget = Absolver_resource.Budget
module Faults = Absolver_resource.Faults

type t = {
  simplex : Simplex.t;
  mutable budget : Budget.t;
  (* Variable interning. A one-shot tableau can lay out the caller's
     structural variables below its own slacks, but a persistent session
     cannot: a later call may introduce a structural index the tableau
     already handed to a slack row. Renaming every external variable
     through [Simplex.new_var] makes each tableau index either one
     interned external variable or one slack, never both. Bounds, the
     tableau and branch-and-bound all live in internal indices; the
     returned models stay external. *)
  ext2int : (int, int) Hashtbl.t;
  int2ext : (int, int) Hashtbl.t;
  (* The slack of every multi-variable linear form seen so far, keyed by
     its external coefficients, with the form's internal variables. A
     single-variable atom bounds its variable directly and needs no
     entry, so the table grows with the problem's linear forms, never
     with the constants that queries (say, witness fixes) put on them. *)
  forms : (int * int list) Linexpr.Form_tbl.t;
  (* Scratch indexed by tableau variable, valid where the stamp equals
     [query]: the bounds this query wants, and the variables it mentions. *)
  mutable want_lo : Simplex.bound option array;
  mutable want_hi : Simplex.bound option array;
  mutable wanted_at : int array;
  mutable mentioned_at : int array;
  mutable query : int;
  (* The variables the last applied query bounded. Outside [solve] the
     trail is empty, so the tableau's bounds are exactly that query's. *)
  mutable bounded : int list;
  (* Work counters, reported by [counters]. *)
  mutable solves : int;
  mutable asserted : int;  (* bounds set that the previous query lacked *)
  mutable retracted : int;  (* bounds of the previous query dropped *)
  mutable reused : int;  (* bounds kept across consecutive queries *)
}

let create ?(budget = Budget.unlimited) () =
  {
    simplex = Simplex.create ~budget ();
    budget;
    ext2int = Hashtbl.create 16;
    int2ext = Hashtbl.create 16;
    forms = Linexpr.Form_tbl.create 16;
    want_lo = [||];
    want_hi = [||];
    wanted_at = [||];
    mentioned_at = [||];
    query = 0;
    bounded = [];
    solves = 0;
    asserted = 0;
    retracted = 0;
    reused = 0;
  }

(* Make the scratch arrays cover tableau variable [x]. *)
let reserve t x =
  let cap = Array.length t.wanted_at in
  if x >= cap then begin
    let c = max (x + 1) (2 * cap) in
    let ext a fill =
      let b = Array.make c fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.want_lo <- ext t.want_lo None;
    t.want_hi <- ext t.want_hi None;
    t.wanted_at <- ext t.wanted_at 0;
    t.mentioned_at <- ext t.mentioned_at 0
  end

let intern_var t v =
  match Hashtbl.find_opt t.ext2int v with
  | Some i -> i
  | None ->
    let i = Simplex.new_var t.simplex in
    Hashtbl.add t.ext2int v i;
    Hashtbl.add t.int2ext i v;
    reserve t i;
    i

(* The slack of a multi-variable form, defined on first sight. *)
let form_slack t coeffs =
  match Linexpr.Form_tbl.find_opt t.forms coeffs with
  | Some entry -> entry
  | None ->
    let vars = List.map (fun (v, _) -> intern_var t v) coeffs in
    let expr =
      Linexpr.of_list (List.map2 (fun (_, q) i -> (q, i)) coeffs vars) Q.zero
    in
    let s = Simplex.define t.simplex expr in
    reserve t s;
    Linexpr.Form_tbl.add t.forms coeffs (s, vars);
    (s, vars)

let extern_model t model =
  List.filter_map
    (fun (i, q) ->
      match Hashtbl.find_opt t.int2ext i with
      | Some v -> Some (v, q)
      | None -> None)
    model

(* A long-lived session (the solve server keeps one per client) is
   re-governed per request: the warm tableau survives, only
   the budget polled by subsequent pivots changes. *)
let set_budget t budget =
  t.budget <- budget;
  Simplex.set_budget t.simplex budget

let counters t =
  [
    ("lp.inc.solves", t.solves);
    ("lp.inc.asserted", t.asserted);
    ("lp.inc.retracted", t.retracted);
    ("lp.inc.reused", t.reused);
    ("lp.pivots", Simplex.num_pivots t.simplex);
  ]

let flip = function
  | Linexpr.Le -> Linexpr.Ge
  | Linexpr.Lt -> Linexpr.Gt
  | Linexpr.Ge -> Linexpr.Le
  | Linexpr.Gt -> Linexpr.Lt
  | Linexpr.Eq -> Linexpr.Eq

(* Record that this query wants [b] on [x]; the tightest bound of each
   kind wins, and of equal ones the first in input order. *)
let want t ~wanted x kind (b : Simplex.bound) =
  if t.wanted_at.(x) <> t.query then begin
    t.wanted_at.(x) <- t.query;
    t.want_lo.(x) <- None;
    t.want_hi.(x) <- None;
    wanted := x :: !wanted
  end;
  match kind with
  | Simplex.Lower -> (
    match t.want_lo.(x) with
    | Some c when DR.leq b.value c.value -> ()
    | _ -> t.want_lo.(x) <- Some b)
  | Simplex.Upper -> (
    match t.want_hi.(x) with
    | Some c when DR.leq c.value b.value -> ()
    | _ -> t.want_hi.(x) <- Some b)

let mention t ~mentioned x =
  if t.mentioned_at.(x) <> t.query then begin
    t.mentioned_at.(x) <- t.query;
    mentioned := x :: !mentioned
  end

(* Map a non-constant constraint [e op 0] to the bounds it puts on one
   tableau variable: [a*x + c op 0] bounds [x] itself, any other form
   bounds its slack. *)
let add_atom t ~wanted ~mentioned (c : Linexpr.cons) =
  let k = Linexpr.const c.expr in
  let x, op, rhs =
    match Linexpr.coeffs c.expr with
    | [ (v, a) ] ->
      let x = intern_var t v in
      mention t ~mentioned x;
      (x, (if Q.sign a < 0 then flip c.op else c.op), Q.div (Q.neg k) a)
    | coeffs ->
      let s, vars = form_slack t coeffs in
      List.iter (mention t ~mentioned) vars;
      (s, c.op, Q.neg k)
  in
  let at value = { Simplex.value; tag = c.tag } in
  match op with
  | Linexpr.Le -> want t ~wanted x Simplex.Upper (at (DR.of_rational rhs))
  | Linexpr.Lt -> want t ~wanted x Simplex.Upper (at (DR.make rhs Q.minus_one))
  | Linexpr.Ge -> want t ~wanted x Simplex.Lower (at (DR.of_rational rhs))
  | Linexpr.Gt -> want t ~wanted x Simplex.Lower (at (DR.make rhs Q.one))
  | Linexpr.Eq ->
    want t ~wanted x Simplex.Lower (at (DR.of_rational rhs));
    want t ~wanted x Simplex.Upper (at (DR.of_rational rhs))

let crossed t x =
  match (t.want_lo.(x), t.want_hi.(x)) with
  | Some l, Some u when DR.lt u.value l.value -> Some [ u.tag; l.tag ]
  | _ -> None

(* Move the tableau's depth-0 bounds from the last query's to this
   one's. Every bound that loosens (or goes) is set before any that
   tightens, so no variable's interval is ever crossed on the way. *)
let apply t wanted =
  let sx = t.simplex in
  let tighten = ref [] in
  let change x kind (want : Simplex.bound option) =
    let cur = Simplex.bound sx x kind in
    match (cur, want) with
    | None, None -> ()
    | Some c, Some w when c.tag = w.tag && DR.equal c.value w.value ->
      t.reused <- t.reused + 1
    | _ ->
      if Option.is_some cur then t.retracted <- t.retracted + 1;
      if Option.is_some want then t.asserted <- t.asserted + 1;
      let looser =
        match (cur, want, kind) with
        | _, None, _ -> true
        | None, Some _, _ -> false
        | Some c, Some w, Simplex.Lower -> DR.leq w.value c.value
        | Some c, Some w, Simplex.Upper -> DR.leq c.value w.value
      in
      if looser then Simplex.set_bound sx x kind want
      else tighten := (x, kind, want) :: !tighten
  in
  List.iter
    (fun x ->
      if t.wanted_at.(x) <> t.query then begin
        change x Simplex.Lower None;
        change x Simplex.Upper None
      end)
    t.bounded;
  List.iter
    (fun x ->
      change x Simplex.Lower t.want_lo.(x);
      change x Simplex.Upper t.want_hi.(x))
    wanted;
  List.iter (fun (x, kind, b) -> Simplex.set_bound sx x kind b) !tighten;
  t.bounded <- wanted

let solve t ?(int_vars = []) constraints =
  t.solves <- t.solves + 1;
  match Simplex.screen constraints with
  | Error tag -> Simplex.Unsat [ tag ]
  | Ok constraints -> (
    try
      Faults.hit "lp.solve_system" t.budget;
      t.query <- t.query + 1;
      let wanted = ref [] and mentioned = ref [] in
      List.iter (add_atom t ~wanted ~mentioned) constraints;
      let wanted = List.rev !wanted in
      match List.find_map (crossed t) wanted with
      | Some tags -> Simplex.Unsat tags
      | None -> (
        apply t wanted;
        let int_vars = List.map (intern_var t) int_vars in
        let vars = List.sort compare !mentioned in
        match Simplex.decide t.simplex ~int_vars ~vars with
        | Simplex.Sat model -> Simplex.Sat (extern_model t model)
        | (Simplex.Unsat _ | Simplex.Unknown _) as v -> v)
    with Budget.Exhausted e -> Simplex.Unknown e)
