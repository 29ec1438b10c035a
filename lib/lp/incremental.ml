module Q = Absolver_numeric.Rational
module DR = Absolver_numeric.Delta_rational
module Budget = Absolver_resource.Budget
module Faults = Absolver_resource.Faults
module Err = Absolver_resource.Absolver_error

type t = {
  simplex : Simplex.t;
  mutable budget : Budget.t;
  (* The assertion stack, top-first: one simplex trail frame per entry,
     so any suffix can be retracted independently of assertion order. *)
  mutable stack : (string * Linexpr.cons) list;
  (* Variable interning. A one-shot tableau can lay out the caller's
     structural variables below its own slacks, but a persistent session
     cannot: a later call may introduce a structural index the tableau
     already handed to a slack row. Renaming every external variable
     through [Simplex.new_var] makes each tableau index either one
     interned external variable or one slack, never both. The stack,
     the tableau and branch-and-bound all live in internal indices; the
     returned models stay external. *)
  ext2int : (int, int) Hashtbl.t;
  int2ext : (int, int) Hashtbl.t;
  (* Interned image of each constraint, memoized by its canonical key:
     the engine re-linearizes the same atoms on every Boolean model, so
     re-walking [intern_cons] per solve would rebuild identical
     expressions thousands of times. Two constraints with equal keys are
     interchangeable (see [cons_key]), so replaying the memo is exact. *)
  interned : (string, Linexpr.cons) Hashtbl.t;
  (* Scratch for [cons_key] and [apply_delta]; reused across solves so
     the per-query bookkeeping stays off the allocator. *)
  keybuf : Buffer.t;
  needed : (string, int) Hashtbl.t;
  (* Work counters, reported by [counters]. *)
  mutable solves : int;
  mutable asserted : int;  (* constraints pushed onto the stack *)
  mutable retracted : int;  (* constraints popped off it *)
  mutable reused : int;  (* constraints kept across consecutive solves *)
}

let create ?(budget = Budget.unlimited) () =
  {
    simplex = Simplex.create ~budget ();
    budget;
    stack = [];
    ext2int = Hashtbl.create 64;
    int2ext = Hashtbl.create 64;
    interned = Hashtbl.create 64;
    keybuf = Buffer.create 256;
    needed = Hashtbl.create 64;
    solves = 0;
    asserted = 0;
    retracted = 0;
    reused = 0;
  }

let intern_var t v =
  match Hashtbl.find_opt t.ext2int v with
  | Some i -> i
  | None ->
    let i = Simplex.new_var t.simplex in
    Hashtbl.add t.ext2int v i;
    Hashtbl.add t.int2ext i v;
    i

let intern_cons t (c : Linexpr.cons) =
  let expr =
    List.fold_left
      (fun acc (v, q) -> Linexpr.add_term acc q (intern_var t v))
      (Linexpr.constant (Linexpr.const c.expr))
      (Linexpr.coeffs c.expr)
  in
  { c with Linexpr.expr }

let intern_memo t k c =
  match Hashtbl.find_opt t.interned k with
  | Some ic -> ic
  | None ->
    let ic = intern_cons t c in
    Hashtbl.add t.interned k ic;
    ic

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

(* Canonical identity of a constraint: tag, relation, sorted coefficient
   list, constant. Two constraints with equal keys are interchangeable on
   the stack, which is what lets the delta treat the inputs as a
   multiset. *)
let cons_key b (c : Linexpr.cons) =
  Buffer.clear b;
  Buffer.add_string b (string_of_int c.tag);
  Buffer.add_char b '|';
  Buffer.add_string b
    (match c.op with
    | Linexpr.Le -> "<="
    | Linexpr.Lt -> "<"
    | Linexpr.Ge -> ">="
    | Linexpr.Gt -> ">"
    | Linexpr.Eq -> "=");
  Buffer.add_char b '|';
  List.iter
    (fun (v, q) ->
      Buffer.add_string b (string_of_int v);
      Buffer.add_char b ':';
      Buffer.add_string b (Q.to_string q);
      Buffer.add_char b ';')
    (Linexpr.coeffs c.expr);
  Buffer.add_char b '|';
  Buffer.add_string b (Q.to_string (Linexpr.const c.expr));
  Buffer.contents b

let branch_tag = -1
let drop_branch_tag tags = List.filter (fun g -> g <> branch_tag) tags

exception Bb_budget

(* Branch-and-bound over [int_vars] on the persistent tableau; mirrors
   the loop in [Simplex.solve_system] (same node cap, same branching
   order) so the two paths stay verdict-equivalent. *)
let branch_and_bound t ~int_vars ~structural =
  let sx = t.simplex in
  let bb_nodes = ref 200_000 in
  let rec bb () =
    decr bb_nodes;
    if !bb_nodes <= 0 then raise Bb_budget;
    match Simplex.check sx with
    | Simplex.Infeasible tags -> Simplex.Unsat tags
    | Simplex.Feasible -> (
      let model = Simplex.concrete_model sx ~vars:structural in
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
      | None -> Simplex.Sat model
      | Some v ->
        let q = List.assoc v model in
        let lo = Q.of_bigint (Q.floor q) and hi = Q.of_bigint (Q.ceil q) in
        Simplex.push sx;
        let left =
          match
            Simplex.assert_bound sx ~tag:branch_tag v Simplex.Upper
              (DR.of_rational lo)
          with
          | Simplex.Feasible -> bb ()
          | Simplex.Infeasible tags -> Simplex.Unsat tags
        in
        Simplex.pop sx;
        (match left with
        | Simplex.Sat _ | Simplex.Unknown _ -> left
        | Simplex.Unsat tags_l -> (
          Simplex.push sx;
          let right =
            match
              Simplex.assert_bound sx ~tag:branch_tag v Simplex.Lower
                (DR.of_rational hi)
            with
            | Simplex.Feasible -> bb ()
            | Simplex.Infeasible tags -> Simplex.Unsat tags
          in
          Simplex.pop sx;
          match right with
          | Simplex.Sat _ | Simplex.Unknown _ -> right
          | Simplex.Unsat tags_r ->
            Simplex.Unsat
              (List.sort_uniq compare (drop_branch_tag (tags_l @ tags_r))))))
  in
  bb ()

(* Map the new constraint multiset onto the assertion stack: keep the
   longest bottom prefix whose entries all still occur in the new set,
   pop everything above it, then push whatever the prefix does not yet
   cover. Returns [Some tags] on an assertion-time conflict (with the
   offending frame already popped, so the session stays consistent). *)
let apply_delta t ~keys ~constraints =
  let sx = t.simplex in
  let needed = t.needed in
  Hashtbl.clear needed;
  List.iter
    (fun k ->
      Hashtbl.replace needed k
        (1 + Option.value ~default:0 (Hashtbl.find_opt needed k)))
    keys;
  let kept = ref [] in
  let n_kept = ref 0 in
  let broken = ref false in
  List.iter
    (fun ((k, _) as entry) ->
      if not !broken then
        match Hashtbl.find_opt needed k with
        | Some n when n > 0 ->
          Hashtbl.replace needed k (n - 1);
          kept := entry :: !kept;
          incr n_kept
        | _ -> broken := true)
    (List.rev t.stack);
  let n_pop = List.length t.stack - !n_kept in
  for _ = 1 to n_pop do
    Simplex.pop sx
  done;
  t.retracted <- t.retracted + n_pop;
  t.reused <- t.reused + !n_kept;
  t.stack <- !kept;
  (* [needed] now holds, per key, how many instances the kept prefix did
     not cover: assert exactly those, in input order. *)
  let conflict = ref None in
  List.iter2
    (fun k c ->
      if !conflict = None then
        match Hashtbl.find_opt needed k with
        | Some n when n > 0 ->
          Hashtbl.replace needed k (n - 1);
          Simplex.push sx;
          (match Simplex.assert_cons sx c with
          | Simplex.Feasible ->
            t.stack <- (k, c) :: t.stack;
            t.asserted <- t.asserted + 1
          | Simplex.Infeasible tags ->
            Simplex.pop sx;
            conflict := Some tags)
        | _ -> ())
    keys constraints;
  !conflict

let solve_session t ~int_vars ~keys ~constraints =
  let sx = t.simplex in
  match apply_delta t ~keys ~constraints with
  | Some tags -> Simplex.Unsat (drop_branch_tag tags)
  | None -> (
    let structural =
      List.sort_uniq compare
        (List.concat_map
           (fun (c : Linexpr.cons) -> Linexpr.vars c.expr)
           constraints)
    in
    let cp = Simplex.checkpoint sx in
    match branch_and_bound t ~int_vars ~structural with
    | Simplex.Sat model -> Simplex.Sat model
    | Simplex.Unsat tags -> Simplex.Unsat (drop_branch_tag tags)
    | Simplex.Unknown _ as u -> u
    | exception Bb_budget ->
      Simplex.rollback sx cp;
      Simplex.Unknown (Err.Out_of_budget Err.Steps)
    | exception Budget.Exhausted e ->
      Simplex.rollback sx cp;
      Simplex.Unknown e)

let solve t ?(int_vars = []) constraints =
  t.solves <- t.solves + 1;
  (* Constant constraints never reach the tableau (as in solve_system). *)
  let const_conflict =
    List.find_opt
      (fun (c : Linexpr.cons) ->
        Linexpr.is_constant c.expr && not (Linexpr.holds (fun _ -> Q.zero) c))
      constraints
  in
  match const_conflict with
  | Some c -> Simplex.Unsat [ c.tag ]
  | None -> (
    let constraints =
      List.filter
        (fun (c : Linexpr.cons) -> not (Linexpr.is_constant c.expr))
        constraints
    in
    let keys = List.map (cons_key t.keybuf) constraints in
    try
      Faults.hit "lp.solve_system" t.budget;
      let constraints = List.map2 (intern_memo t) keys constraints in
      let int_vars = List.map (intern_var t) int_vars in
      match solve_session t ~int_vars ~keys ~constraints with
      | Simplex.Sat model -> Simplex.Sat (extern_model t model)
      | (Simplex.Unsat _ | Simplex.Unknown _) as v -> v
    with Budget.Exhausted e -> Simplex.Unknown e)
