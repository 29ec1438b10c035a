module Q = Absolver_numeric.Rational
module Expr = Absolver_nlp.Expr
module Types = Absolver_sat.Types
module Circuit = Absolver_circuit.Circuit
module Linexpr = Absolver_lp.Linexpr

type domain = Dint | Dreal

let pp_domain fmt d =
  Format.pp_print_string fmt (match d with Dint -> "int" | Dreal -> "real")

type def = { bool_var : Types.var; domain : domain; rel : Expr.rel }

type t = {
  mutable num_bool_vars : int;
  mutable clauses_rev : Types.lit list list;
  mutable n_clauses : int;
  (* A Boolean variable may carry several definitions (paper Fig. 2 links
     variable 1 to both [i >= 0] and [j >= 0]): the variable is delta-linked
     to their conjunction.  Stored newest-first. *)
  defs_tbl : (Types.var, def list) Hashtbl.t;
  mutable def_order : Types.var list; (* insertion order, newest first *)
  names : (string, int) Hashtbl.t;
  mutable names_rev : string array;
  mutable n_arith : int;
  bounds_tbl : (int, Q.t option * Q.t option) Hashtbl.t;
  mutable projection : Types.var list option;
}

let create () =
  {
    num_bool_vars = 0;
    clauses_rev = [];
    n_clauses = 0;
    defs_tbl = Hashtbl.create 16;
    def_order = [];
    names = Hashtbl.create 16;
    names_rev = Array.make 16 "";
    n_arith = 0;
    bounds_tbl = Hashtbl.create 16;
    projection = None;
  }

let ensure_bool_vars t n = if n > t.num_bool_vars then t.num_bool_vars <- n

let rec vars_needed n = function
  | [] -> n
  | l :: rest -> vars_needed (Int.max n (Types.var_of l + 1)) rest

let add_clause t lits =
  ensure_bool_vars t (vars_needed 0 lits);
  t.clauses_rev <- lits :: t.clauses_rev;
  t.n_clauses <- t.n_clauses + 1

let intern_arith_var t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
    let i = t.n_arith in
    if i >= Array.length t.names_rev then begin
      let a = Array.make (2 * Array.length t.names_rev) "" in
      Array.blit t.names_rev 0 a 0 i;
      t.names_rev <- a
    end;
    t.names_rev.(i) <- name;
    Hashtbl.add t.names name i;
    t.n_arith <- i + 1;
    i

let arith_var_name t i =
  if i < 0 || i >= t.n_arith then invalid_arg "Ab_problem.arith_var_name"
  else t.names_rev.(i)

let arith_var_index t name = Hashtbl.find_opt t.names name
let num_arith_vars t = t.n_arith

let define t ~bool_var ~domain rel =
  ensure_bool_vars t (bool_var + 1);
  let rel = { rel with Expr.tag = bool_var } in
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.defs_tbl bool_var) in
  let duplicate =
    List.exists
      (fun d ->
        d.domain = domain
        && Expr.equal d.rel.Expr.expr rel.Expr.expr
        && d.rel.Expr.op = rel.Expr.op)
      existing
  in
  if not duplicate then begin
    if existing = [] then t.def_order <- bool_var :: t.def_order;
    Hashtbl.replace t.defs_tbl bool_var ({ bool_var; domain; rel } :: existing)
  end

let set_bounds t v ?lower ?upper () =
  if v < 0 || v >= t.n_arith then invalid_arg "Ab_problem.set_bounds";
  let lo0, hi0 =
    Option.value ~default:(None, None) (Hashtbl.find_opt t.bounds_tbl v)
  in
  let pick newer older = match newer with Some _ -> newer | None -> older in
  Hashtbl.replace t.bounds_tbl v (pick lower lo0, pick upper hi0)

let num_bool_vars t = t.num_bool_vars
let clauses t = List.rev t.clauses_rev
let num_clauses t = t.n_clauses

let defs t =
  List.rev t.def_order
  |> List.concat_map (fun v ->
       List.rev (Option.value ~default:[] (Hashtbl.find_opt t.defs_tbl v)))

let find_defs t v =
  List.rev (Option.value ~default:[] (Hashtbl.find_opt t.defs_tbl v))

let defined_vars t = List.rev t.def_order

let bounds t =
  Hashtbl.fold (fun v b acc -> (v, b) :: acc) t.bounds_tbl []
  |> List.sort compare

let set_projection t vars = t.projection <- Some (List.sort_uniq compare vars)
let projection t = t.projection

let bounds_tag = -2

let bound_rels t =
  List.concat_map
    (fun (v, (lo, hi)) ->
      let mk q op =
        (* x - q op 0 *)
        {
          Expr.expr = Expr.sub (Expr.var v) (Expr.const q);
          op;
          tag = bounds_tag;
        }
      in
      (match lo with Some q -> [ mk q Linexpr.Ge ] | None -> [])
      @ (match hi with Some q -> [ mk q Linexpr.Le ] | None -> []))
    (bounds t)

type problem_stats = {
  n_clauses : int;
  n_bool_vars : int;
  n_linear : int;
  n_nonlinear : int;
  n_int_defs : int;
  n_real_defs : int;
}

let stats t =
  let ds = defs t in
  let n_linear = List.length (List.filter (fun d -> Expr.is_linear d.rel.Expr.expr) ds) in
  {
    n_clauses = t.n_clauses;
    n_bool_vars = t.num_bool_vars;
    n_linear;
    n_nonlinear = List.length ds - n_linear;
    n_int_defs = List.length (List.filter (fun d -> d.domain = Dint) ds);
    n_real_defs = List.length (List.filter (fun d -> d.domain = Dreal) ds);
  }

let pp_stats fmt s =
  Format.fprintf fmt "#Cl. %d  #Var. %d  #linear %d  #nonlin. %d" s.n_clauses
    s.n_bool_vars s.n_linear s.n_nonlinear

let to_circuit t =
  let b = Circuit.builder () in
  let lit_node l =
    let v = Types.var_of l in
    let base =
      match find_defs t v with
      | [] -> Circuit.input b v
      | [ d ] -> Circuit.cmp b d.rel.Expr.expr d.rel.Expr.op
      | ds ->
        Circuit.and_ b
          (List.map (fun d -> Circuit.cmp b d.rel.Expr.expr d.rel.Expr.op) ds)
    in
    if Types.is_pos l then base else Circuit.not_ b base
  in
  let clause_nodes =
    List.map (fun clause -> Circuit.or_ b (List.map lit_node clause)) (clauses t)
  in
  let out = Circuit.and_ b clause_nodes in
  Circuit.seal b ~output:out

let rec lits_in_range n = function
  | [] -> true
  | l :: rest ->
    let v = Types.var_of l in
    v >= 0 && v < n && lits_in_range n rest

let rec vars_in_range n (e : Expr.t) =
  match e with
  | Const _ -> true
  | Var v -> v >= 0 && v < n
  | Neg e | Pow (e, _) | Sqrt e | Exp e | Log e | Sin e | Cos e -> vars_in_range n e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> vars_in_range n a && vars_in_range n b

let rec defs_in_range n = function
  | [] -> true
  | (d : def) :: rest -> vars_in_range n d.rel.Expr.expr && defs_in_range n rest

(* The checks of [validate], without building a diagnostic or a list. *)
let well_formed t =
  List.for_all (function [] -> false | c -> lits_in_range t.num_bool_vars c) t.clauses_rev
  && Hashtbl.fold
       (fun v ds ok -> ok && v >= 0 && v < t.num_bool_vars && defs_in_range t.n_arith ds)
       t.defs_tbl true
  && Hashtbl.fold (fun v _ ok -> ok && v >= 0 && v < t.n_arith) t.bounds_tbl true

let diagnose t =
  let problems = ref [] in
  let err fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun clause ->
      if clause = [] then err "empty clause";
      List.iter
        (fun l ->
          let v = Types.var_of l in
          if v < 0 || v >= t.num_bool_vars then
            err "literal %d out of range" (Types.to_dimacs l))
        clause)
    (clauses t);
  Hashtbl.iter
    (fun v ds ->
      if v < 0 || v >= t.num_bool_vars then
        err "definition for out-of-range variable %d" (v + 1);
      List.iter
        (fun (d : def) ->
          List.iter
            (fun av ->
              if av < 0 || av >= t.n_arith then
                err "definition of %d references unknown arith var %d" (v + 1) av)
            (Expr.vars d.rel.Expr.expr))
        ds)
    t.defs_tbl;
  Hashtbl.iter
    (fun v _ ->
      if v < 0 || v >= t.n_arith then err "bounds on unknown arith var %d" v)
    t.bounds_tbl;
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " (List.rev ps))

let validate t = if well_formed t then Ok () else diagnose t
