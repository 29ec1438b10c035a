module Q = Absolver_numeric.Rational
module DR = Absolver_numeric.Delta_rational
module Budget = Absolver_resource.Budget
module Faults = Absolver_resource.Faults

(* A linear form over external variables, shared by every atom on it:
   [[]] for a constant, one term for a bound on the variable itself. Its
   tableau variable is resolved when a query first names one of its
   atoms (again after a [reset]), so variables are interned and slacks
   defined in the order a one-shot query would meet them. *)
type form = {
  coeffs : (Linexpr.var * Q.t) list;
  mutable gen : int;  (* [x] and [vars] hold for this tableau generation *)
  mutable x : int;
  mutable vars : int list;  (* the internal variables the form mentions *)
  mutable ids : int list;  (* the atoms registered on the form *)
}

(* An atom compiled once: the bounds [cons] puts on its form's variable.
   A constant atom bounds nothing; [holds] says whether it is true. *)
type atom = { cons : Linexpr.cons; form : form; lo : bound; hi : bound; holds : bool }
and bound = Simplex.bound option

type stats = { solves : int; asserted : int; retracted : int; reused : int; pivots : int }

type t = {
  mutable simplex : Simplex.t;
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
  (* Every form seen, by its coefficients, and the registered atoms. *)
  forms : form Linexpr.Form_tbl.t;
  mutable atoms : atom array;
  mutable num_atoms : int;
  (* Bumped by [reset]: forms resolved before it must resolve again. *)
  mutable gen : int;
  (* Scratch indexed by tableau variable, valid where the stamp equals
     [query]: the bounds this query wants, and the variables it mentions. *)
  mutable want_lo : Simplex.bound option array;
  mutable want_hi : Simplex.bound option array;
  mutable wanted_at : int array;
  mutable mentioned_at : int array;
  mutable query : int;
  (* Buffers of tableau variables, as long as the scratch arrays: the
     variables this query bounds ([wanted]) and mentions, each in order
     of first sight. Each holds distinct variables, so none overflows. *)
  mutable wanted : int array;
  mutable num_wanted : int;
  mutable mentioned : int array;
  mutable num_mentioned : int;
  (* The variables the last applied query bounded, [wanted]'s buffer of
     that query. Outside [solve] the trail is empty, so the tableau's
     bounds are exactly that query's. *)
  mutable bounded : int array;
  mutable num_bounded : int;
  (* Work counters, reported by [stats]. *)
  mutable solves : int;
  mutable asserted : int;  (* bounds set that the previous query lacked *)
  mutable retracted : int;  (* bounds of the previous query dropped *)
  mutable reused : int;  (* bounds kept across consecutive queries *)
  mutable dropped_pivots : int;  (* pivots of tableaus [reset] dropped *)
}

let create ?(budget = Budget.unlimited) () =
  {
    simplex = Simplex.create ~budget ();
    budget;
    ext2int = Hashtbl.create 16;
    int2ext = Hashtbl.create 16;
    forms = Linexpr.Form_tbl.create 16;
    atoms = [||];
    num_atoms = 0;
    gen = 0;
    want_lo = [||];
    want_hi = [||];
    wanted_at = [||];
    mentioned_at = [||];
    query = 0;
    wanted = [||];
    num_wanted = 0;
    mentioned = [||];
    num_mentioned = 0;
    bounded = [||];
    num_bounded = 0;
    solves = 0;
    asserted = 0;
    retracted = 0;
    reused = 0;
    dropped_pivots = 0;
  }

let reset t =
  t.dropped_pivots <- t.dropped_pivots + Simplex.num_pivots t.simplex;
  t.simplex <- Simplex.create ~budget:t.budget ();
  Hashtbl.reset t.ext2int;
  Hashtbl.reset t.int2ext;
  t.gen <- t.gen + 1;
  t.num_bounded <- 0

let forget t =
  Linexpr.Form_tbl.iter (fun _ f -> f.ids <- []) t.forms;
  t.atoms <- [||];
  t.num_atoms <- 0

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
    t.mentioned_at <- ext t.mentioned_at 0;
    t.wanted <- ext t.wanted 0;
    t.mentioned <- ext t.mentioned 0;
    t.bounded <- ext t.bounded 0
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

let form t coeffs =
  match Linexpr.Form_tbl.find_opt t.forms coeffs with
  | Some f -> f
  | None ->
    let f = { coeffs; gen = -1; x = -1; vars = []; ids = [] } in
    Linexpr.Form_tbl.add t.forms coeffs f;
    f

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

let stats t : stats =
  {
    solves = t.solves;
    asserted = t.asserted;
    retracted = t.retracted;
    reused = t.reused;
    pivots = t.dropped_pivots + Simplex.num_pivots t.simplex;
  }

let flip = function
  | Linexpr.Le -> Linexpr.Ge
  | Linexpr.Lt -> Linexpr.Gt
  | Linexpr.Ge -> Linexpr.Le
  | Linexpr.Gt -> Linexpr.Lt
  | Linexpr.Eq -> Linexpr.Eq

(* Record that this query wants [b] on [x]; the tightest bound of each
   kind wins, and of equal ones the first in input order. *)
let want t x kind (b : bound) =
  match b with
  | None -> ()
  | Some { value; _ } -> (
    if t.wanted_at.(x) <> t.query then begin
      t.wanted_at.(x) <- t.query;
      t.want_lo.(x) <- None;
      t.want_hi.(x) <- None;
      t.wanted.(t.num_wanted) <- x;
      t.num_wanted <- t.num_wanted + 1
    end;
    match kind with
    | Simplex.Lower -> (
      match t.want_lo.(x) with
      | Some c when DR.leq value c.value -> ()
      | _ -> t.want_lo.(x) <- b)
    | Simplex.Upper -> (
      match t.want_hi.(x) with
      | Some c when DR.leq c.value value -> ()
      | _ -> t.want_hi.(x) <- b))

let rec mention t = function
  | [] -> ()
  | x :: xs ->
    if t.mentioned_at.(x) <> t.query then begin
      t.mentioned_at.(x) <- t.query;
      t.mentioned.(t.num_mentioned) <- x;
      t.num_mentioned <- t.num_mentioned + 1
    end;
    mention t xs

(* Compile [c = (e op 0)] on [form], the form of [e]: [a*x + k op 0]
   bounds [x] itself by [-k/a], any other form bounds its variable by
   [-k]. *)
let compile form (c : Linexpr.cons) =
  let k = Linexpr.const c.expr in
  let op, rhs =
    match form.coeffs with
    | [ (_, a) ] -> ((if Q.sign a < 0 then flip c.op else c.op), Q.div (Q.neg k) a)
    | _ -> (c.op, Q.neg k)
  in
  let delta = match op with Linexpr.Lt -> Q.minus_one | Linexpr.Gt -> Q.one | _ -> Q.zero in
  let b = Some { Simplex.value = DR.make rhs delta; tag = c.tag } in
  let lo, hi =
    match op with
    | Linexpr.Le | Linexpr.Lt -> (None, b)
    | Linexpr.Ge | Linexpr.Gt -> (b, None)
    | Linexpr.Eq -> (b, b)
  in
  { cons = c; form; lo; hi; holds = form.coeffs <> [] || Linexpr.holds (fun _ -> Q.zero) c }

let rec find t (c : Linexpr.cons) = function
  | [] -> -1
  | id :: ids ->
    let a = t.atoms.(id).cons in
    if a.op = c.op && a.tag = c.tag && Q.equal (Linexpr.const a.expr) (Linexpr.const c.expr)
    then id
    else find t c ids

let register t (c : Linexpr.cons) =
  let f = form t (Linexpr.coeffs c.expr) in
  match find t c f.ids with
  | -1 ->
    let id = t.num_atoms and a = compile f c in
    if id = Array.length t.atoms then
      t.atoms <- Array.init (max 16 (2 * id)) (fun i -> if i < id then t.atoms.(i) else a);
    t.atoms.(id) <- a;
    t.num_atoms <- id + 1;
    f.ids <- id :: f.ids;
    id
  | id -> id

(* Want an atom's bounds on its form's variable: the interned variable
   of a one-term form, otherwise a slack defined on first sight. *)
let add_atom t { form = f; lo; hi; _ } =
  if f.coeffs <> [] then begin
    if f.gen <> t.gen then begin
      f.vars <- List.map (fun (v, _) -> intern_var t v) f.coeffs;
      (match (f.coeffs, f.vars) with
      | [ _ ], [ x ] -> f.x <- x
      | coeffs, vars ->
        f.x <-
          Simplex.define t.simplex
            (Linexpr.of_list (List.map2 (fun (_, q) i -> (q, i)) coeffs vars) Q.zero);
        reserve t f.x);
      f.gen <- t.gen
    end;
    mention t f.vars;
    want t f.x Simplex.Lower lo;
    want t f.x Simplex.Upper hi
  end

let crossed t x =
  match (t.want_lo.(x), t.want_hi.(x)) with
  | Some l, Some u when DR.lt u.value l.value -> Some [ u.tag; l.tag ]
  | _ -> None

(* The tags of the first wanted variable whose bounds cross, in order of
   first sight. *)
let rec first_crossed t k =
  if k = t.num_wanted then None
  else match crossed t t.wanted.(k) with None -> first_crossed t (k + 1) | c -> c

(* The position of the first of [ids.(k .. n - 1)] that is a false
   constant atom, or [n]. *)
let rec first_false t ids n k =
  if k = n || not t.atoms.(ids.(k)).holds then k else first_false t ids n (k + 1)

let same (cur : Simplex.bound option) (want : Simplex.bound option) =
  match (cur, want) with
  | None, None -> true
  | Some c, Some w -> c.tag = w.tag && DR.equal c.value w.value
  | _ -> false

(* Count how the tableau's bound of [kind] on [x] moves to [want], and
   set it now unless it tightens. *)
let change t x kind (want : Simplex.bound option) =
  let cur = Simplex.bound t.simplex x kind in
  if same cur want then (if Option.is_some cur then t.reused <- t.reused + 1)
  else begin
    if Option.is_some cur then t.retracted <- t.retracted + 1;
    if Option.is_some want then t.asserted <- t.asserted + 1;
    let looser =
      match (cur, want, kind) with
      | _, None, _ -> true
      | None, Some _, _ -> false
      | Some c, Some w, Simplex.Lower -> DR.leq w.value c.value
      | Some c, Some w, Simplex.Upper -> DR.leq c.value w.value
    in
    if looser then Simplex.set_bound t.simplex x kind want
  end

(* A bound [change] left for later: after it, only the tightening ones
   still differ from what the query wants. *)
let tighten t x kind (want : Simplex.bound option) =
  if not (same (Simplex.bound t.simplex x kind) want) then Simplex.set_bound t.simplex x kind want

(* Move the tableau's depth-0 bounds from the last query's to this
   one's. Every bound that loosens (or goes) is set before any that
   tightens, so no variable's interval is ever crossed on the way; the
   tightenings go last wanted variable first, upper before lower. *)
let apply t =
  for k = 0 to t.num_bounded - 1 do
    let x = t.bounded.(k) in
    if t.wanted_at.(x) <> t.query then begin
      change t x Simplex.Lower None;
      change t x Simplex.Upper None
    end
  done;
  for k = 0 to t.num_wanted - 1 do
    let x = t.wanted.(k) in
    change t x Simplex.Lower t.want_lo.(x);
    change t x Simplex.Upper t.want_hi.(x)
  done;
  for k = t.num_wanted - 1 downto 0 do
    let x = t.wanted.(k) in
    tighten t x Simplex.Upper t.want_hi.(x);
    tighten t x Simplex.Lower t.want_lo.(x)
  done;
  let bounded = t.bounded in
  t.bounded <- t.wanted;
  t.num_bounded <- t.num_wanted;
  t.wanted <- bounded

(* The mentioned variables in increasing order. *)
let mentioned_vars t =
  List.sort compare (List.init t.num_mentioned (Array.get t.mentioned))

let solve t ?(int_vars = []) ?(fixes = []) ids n =
  t.solves <- t.solves + 1;
  let fix (c : Linexpr.cons) = compile (form t (Linexpr.coeffs c.expr)) c in
  let fixes = List.map fix fixes in
  match List.find_opt (fun a -> not a.holds) fixes with
  | Some { cons; _ } -> Simplex.Unsat [ cons.tag ]
  | None -> (
    match first_false t ids n 0 with
    | k when k < n -> Simplex.Unsat [ t.atoms.(ids.(k)).cons.tag ]
    | _ -> (
      try
        Faults.hit "lp.solve_system" t.budget;
        t.query <- t.query + 1;
        t.num_wanted <- 0;
        t.num_mentioned <- 0;
        List.iter (add_atom t) fixes;
        for k = 0 to n - 1 do
          add_atom t t.atoms.(ids.(k))
        done;
        match first_crossed t 0 with
        | Some tags -> Simplex.Unsat tags
        | None -> (
          apply t;
          let int_vars = List.map (intern_var t) int_vars in
          match Simplex.decide t.simplex ~int_vars ~vars:(lazy (mentioned_vars t)) with
          | Simplex.Sat model -> Simplex.Sat (extern_model t model)
          | (Simplex.Unsat _ | Simplex.Unknown _) as v -> v)
      with Budget.Exhausted e -> Simplex.Unknown e))
