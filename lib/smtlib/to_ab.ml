module Q = Absolver_numeric.Rational
module Expr = Absolver_nlp.Expr
module Linexpr = Absolver_lp.Linexpr
module Tseitin = Absolver_sat.Tseitin
module Ab_problem = Absolver_core.Ab_problem

exception Err of string

let rec expr_of_term problem (t : Ast.term) : Expr.t =
  match t with
  | Ast.T_var name -> Expr.var (Ab_problem.intern_arith_var problem name)
  | Ast.T_const q -> Expr.const q
  | Ast.T_add ts -> Expr.sum (List.map (expr_of_term problem) ts)
  | Ast.T_sub (a, b) -> Expr.sub (expr_of_term problem a) (expr_of_term problem b)
  | Ast.T_neg a -> Expr.neg (expr_of_term problem a)
  | Ast.T_mul (a, b) -> Expr.mul (expr_of_term problem a) (expr_of_term problem b)
  | Ast.T_div (a, b) -> Expr.div (expr_of_term problem a) (expr_of_term problem b)

let op_of_cmp = function
  | Ast.Lt -> Linexpr.Lt
  | Ast.Le -> Linexpr.Le
  | Ast.Gt -> Linexpr.Gt
  | Ast.Ge -> Linexpr.Ge
  | Ast.Eq -> Linexpr.Eq

let convert_full ?(split_eq = true) (b : Ast.benchmark) =
  match
    let problem = Ab_problem.create () in
    let int_sorts = Hashtbl.create 8 in
    List.iter
      (fun (n, sort) ->
        let v = Ab_problem.intern_arith_var problem n in
        if sort = Ast.S_int then Hashtbl.replace int_sorts v ())
      (List.filter (fun (_, s) -> s <> Ast.S_bool) b.Ast.extrafuns);
    let next_bool = ref 0 in
    let fresh () =
      let v = !next_bool in
      incr next_bool;
      v
    in
    (* Propositional predicates. *)
    let preds = Hashtbl.create 8 in
    List.iter (fun p -> Hashtbl.replace preds p (fresh ())) b.Ast.extrapreds;
    (* Arithmetic atoms, shared structurally. *)
    let atoms = Expr.Atom_tbl.create 16 in
    let domain_of e =
      let vars = Expr.vars e in
      if vars <> [] && List.for_all (fun v -> Hashtbl.mem int_sorts v) vars then
        Ab_problem.Dint
      else Ab_problem.Dreal
    in
    let atom_var expr op =
      match Expr.Atom_tbl.find_opt atoms (expr, op) with
      | Some v -> v
      | None ->
        let v = fresh () in
        Expr.Atom_tbl.add atoms (expr, op) v;
        Ab_problem.define problem ~bool_var:v ~domain:(domain_of expr)
          { Expr.expr; op; tag = v };
        v
    in
    let rec conv (f : Ast.formula) : Tseitin.formula =
      match f with
      | Ast.F_true -> Tseitin.True
      | Ast.F_false -> Tseitin.False
      | Ast.F_pred p -> (
        match Hashtbl.find_opt preds p with
        | Some v -> Tseitin.atom v
        | None -> raise (Err (Printf.sprintf "undeclared predicate %s" p)))
      | Ast.F_cmp (c, a, bt) ->
        let e = Expr.sub (expr_of_term problem a) (expr_of_term problem bt) in
        if c = Ast.Eq && split_eq then
          (* eq  <=>  (e <= 0) and (e >= 0): keeps negated equalities
             branch-free downstream. *)
          Tseitin.and_
            [
              Tseitin.atom (atom_var e Linexpr.Le);
              Tseitin.atom (atom_var e Linexpr.Ge);
            ]
        else Tseitin.atom (atom_var e (op_of_cmp c))
      | Ast.F_not f -> Tseitin.not_ (conv f)
      | Ast.F_and fs -> Tseitin.and_ (List.map conv fs)
      | Ast.F_or fs -> Tseitin.or_ (List.map conv fs)
      | Ast.F_implies (x, y) -> Tseitin.implies (conv x) (conv y)
      | Ast.F_iff (x, y) -> Tseitin.iff (conv x) (conv y)
      | Ast.F_xor (x, y) -> Tseitin.xor (conv x) (conv y)
    in
    let full =
      Tseitin.and_ (List.map conv (b.Ast.assumptions @ [ b.Ast.formula ]))
    in
    let clauses, n_vars = Tseitin.assert_cnf ~num_vars:!next_bool full in
    Ab_problem.ensure_bool_vars problem n_vars;
    List.iter (Ab_problem.add_clause problem) clauses;
    Ab_problem.set_projection problem (List.init !next_bool Fun.id);
    (match Ab_problem.validate problem with
    | Ok () -> ()
    | Error e -> raise (Err e));
    (* Predicate map in declaration order: the SMT-LIB 2 front-end reads
       Boolean model values back through it. *)
    (problem, List.map (fun p -> (p, Hashtbl.find preds p)) b.Ast.extrapreds)
  with
  | result -> Ok result
  | exception Err msg -> Error msg

let convert_split_eq ~split_eq b = Result.map fst (convert_full ~split_eq b)
let convert b = convert_split_eq ~split_eq:true b
