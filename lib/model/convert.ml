module Q = Absolver_numeric.Rational
module Expr = Absolver_nlp.Expr
module Tseitin = Absolver_sat.Tseitin
module Ab_problem = Absolver_core.Ab_problem
module Linexpr = Absolver_lp.Linexpr

type goal = [ `Find_violation | `Find_witness ]

exception Conversion_error of string

let op_of_comparison = function
  | Block.C_lt -> Linexpr.Lt
  | Block.C_le -> Linexpr.Le
  | Block.C_gt -> Linexpr.Gt
  | Block.C_ge -> Linexpr.Ge
  | Block.C_eq -> Linexpr.Eq

(* Inline the node's equations: every signal maps to either an arithmetic
   expression over the inports, or a Boolean formula over comparison
   atoms. *)
type signal_value = V_arith of Expr.t | V_bool of Tseitin.formula

let node_to_ab ?(goal = `Find_violation) ~output (node : Lustre.node) =
  match
    let problem = Ab_problem.create () in
    (* Inports first: intern variables, record bounds and domains. *)
    let domains = Hashtbl.create 16 in
    List.iter
      (fun (inp : Lustre.input) ->
        let v = Ab_problem.intern_arith_var problem inp.Lustre.in_name in
        Hashtbl.replace domains v
          (if inp.Lustre.in_integer then Ab_problem.Dint else Ab_problem.Dreal);
        match (inp.Lustre.in_lo, inp.Lustre.in_hi) with
        | None, None -> ()
        | lo, hi -> Ab_problem.set_bounds problem v ?lower:lo ?upper:hi ())
      node.Lustre.inputs;
    (* Comparison atoms are shared through a table keyed on the normalized
       relation. *)
    let atoms : int Expr.Atom_tbl.t = Expr.Atom_tbl.create 16 in
    let next_bool = ref 0 in
    let fresh_bool () =
      let v = !next_bool in
      incr next_bool;
      v
    in
    let atom_of_rel domain (rel : Expr.rel) =
      let key = (rel.Expr.expr, rel.Expr.op) in
      match Expr.Atom_tbl.find_opt atoms key with
      | Some v -> v
      | None ->
        let v = fresh_bool () in
        Expr.Atom_tbl.add atoms key v;
        Ab_problem.define problem ~bool_var:v ~domain rel;
        v
    in
    let values : (string, signal_value) Hashtbl.t = Hashtbl.create 64 in
    let lookup s =
      match Hashtbl.find_opt values s with
      | Some v -> v
      | None -> (
        (* Must be an inport. *)
        match Ab_problem.arith_var_index problem s with
        | Some v -> V_arith (Expr.var v)
        | None -> raise (Conversion_error (Printf.sprintf "undefined signal %s" s)))
    in
    let as_arith s v =
      match v with
      | V_arith e -> e
      | V_bool _ -> raise (Conversion_error (Printf.sprintf "signal %s: expected numeric" s))
    in
    let as_bool s v =
      match v with
      | V_bool f -> f
      | V_arith _ -> raise (Conversion_error (Printf.sprintf "signal %s: expected Boolean" s))
    in
    let domain_of_expr e =
      (* An atom is integer-domain when all its variables are integer. *)
      let vars = Expr.vars e in
      if
        vars <> []
        && List.for_all
             (fun v -> Hashtbl.find_opt domains v = Some Ab_problem.Dint)
             vars
      then Ab_problem.Dint
      else Ab_problem.Dreal
    in
    let rec eval (e : Lustre.expr) : signal_value =
      match e with
      | Lustre.E_var s -> lookup s
      | Lustre.E_const_q q -> V_arith (Expr.const q)
      | Lustre.E_const_b b -> V_bool (if b then Tseitin.True else Tseitin.False)
      | Lustre.E_add (a, b) -> V_arith (Expr.add (arith a) (arith b))
      | Lustre.E_sub (a, b) -> V_arith (Expr.sub (arith a) (arith b))
      | Lustre.E_mul (a, b) -> V_arith (Expr.mul (arith a) (arith b))
      | Lustre.E_div (a, b) -> V_arith (Expr.div (arith a) (arith b))
      | Lustre.E_pow (a, n) -> V_arith (Expr.pow (arith a) n)
      | Lustre.E_math (f, a) ->
        let ea = arith a in
        V_arith
          (match f with
          | Block.M_sqrt -> Expr.sqrt ea
          | Block.M_exp -> Expr.exp ea
          | Block.M_log -> Expr.log ea
          | Block.M_sin -> Expr.sin ea
          | Block.M_cos -> Expr.cos ea)
      | Lustre.E_cmp (c, a, b) ->
        let diff = Expr.sub (arith a) (arith b) in
        let rel = { Expr.expr = diff; op = op_of_comparison c; tag = 0 } in
        let v = atom_of_rel (domain_of_expr diff) rel in
        V_bool (Tseitin.atom v)
      | Lustre.E_and es -> V_bool (Tseitin.and_ (List.map boolean es))
      | Lustre.E_or es -> V_bool (Tseitin.or_ (List.map boolean es))
      | Lustre.E_not a -> V_bool (Tseitin.not_ (boolean a))
      | Lustre.E_delay _ ->
        raise
          (Conversion_error
             "delay in a combinational conversion: use node_to_ab_bmc")
    and arith e = as_arith "<expr>" (eval e)
    and boolean e = as_bool "<expr>" (eval e) in
    List.iter
      (fun (eq : Lustre.equation) ->
        Hashtbl.replace values eq.Lustre.lhs (eval eq.Lustre.rhs))
      node.Lustre.equations;
    let out_formula =
      match Hashtbl.find_opt values output with
      | Some (V_bool f) -> f
      | Some (V_arith _) ->
        raise (Conversion_error (Printf.sprintf "output %s is numeric" output))
      | None -> raise (Conversion_error (Printf.sprintf "unknown output %s" output))
    in
    let formula =
      match goal with
      | `Find_violation -> Tseitin.not_ out_formula
      | `Find_witness -> out_formula
    in
    let clauses, n_vars = Tseitin.assert_cnf ~num_vars:!next_bool formula in
    Ab_problem.ensure_bool_vars problem n_vars;
    List.iter (Ab_problem.add_clause problem) clauses;
    Ab_problem.set_projection problem (List.init !next_bool Fun.id);
    (match Ab_problem.validate problem with
    | Ok () -> ()
    | Error e -> raise (Conversion_error e));
    problem
  with
  | problem -> Ok problem
  | exception Conversion_error msg -> Error msg

let diagram_to_ab ?goal ?(name = "model") ~output d =
  match Lustre.of_diagram ~name d with
  | Error e -> Error e
  | Ok node -> node_to_ab ?goal ~output node

(* ------------------------------------------------------------------ *)
(* Bounded model checking of stateful nodes: unroll [steps] instants,
   fresh inport variables per instant, delays referring to the previous
   instant (or their initial value at instant 0). *)

let node_to_ab_bmc ?(goal = `Find_violation) ~steps ~output (node : Lustre.node) =
  if steps < 1 then Error "node_to_ab_bmc: steps must be >= 1"
  else
    match
      let problem = Ab_problem.create () in
      let domains = Hashtbl.create 16 in
      let inport_var name t =
        Ab_problem.intern_arith_var problem (Printf.sprintf "%s@%d" name t)
      in
      List.iter
        (fun (inp : Lustre.input) ->
          for t = 0 to steps - 1 do
            let v = inport_var inp.Lustre.in_name t in
            Hashtbl.replace domains v
              (if inp.Lustre.in_integer then Ab_problem.Dint else Ab_problem.Dreal);
            match (inp.Lustre.in_lo, inp.Lustre.in_hi) with
            | None, None -> ()
            | lo, hi -> Ab_problem.set_bounds problem v ?lower:lo ?upper:hi ()
          done)
        node.Lustre.inputs;
      let atoms : int Expr.Atom_tbl.t = Expr.Atom_tbl.create 16 in
      let next_bool = ref 0 in
      let fresh_bool () =
        let v = !next_bool in
        incr next_bool;
        v
      in
      let atom_of_rel domain (rel : Expr.rel) =
        let key = (rel.Expr.expr, rel.Expr.op) in
        match Expr.Atom_tbl.find_opt atoms key with
        | Some v -> v
        | None ->
          let v = fresh_bool () in
          Expr.Atom_tbl.add atoms key v;
          Ab_problem.define problem ~bool_var:v ~domain rel;
          v
      in
      let is_input name =
        List.exists (fun (i : Lustre.input) -> i.Lustre.in_name = name) node.Lustre.inputs
      in
      let equation_of name =
        List.find_opt (fun (eq : Lustre.equation) -> eq.Lustre.lhs = name) node.Lustre.equations
      in
      (* Memoized per-instant evaluation of signals. *)
      let memo : (string * int, signal_value) Hashtbl.t = Hashtbl.create 64 in
      let domain_of_expr e =
        let vars = Expr.vars e in
        if
          vars <> []
          && List.for_all
               (fun v -> Hashtbl.find_opt domains v = Some Ab_problem.Dint)
               vars
        then Ab_problem.Dint
        else Ab_problem.Dreal
      in
      let rec signal name t : signal_value =
        match Hashtbl.find_opt memo (name, t) with
        | Some v -> v
        | None ->
          let v =
            if is_input name then V_arith (Expr.var (inport_var name t))
            else
              match equation_of name with
              | Some eq -> eval t eq.Lustre.rhs
              | None ->
                raise (Conversion_error (Printf.sprintf "undefined signal %s" name))
          in
          Hashtbl.replace memo (name, t) v;
          v
      and eval t (e : Lustre.expr) : signal_value =
        let arith e =
          match eval t e with
          | V_arith x -> x
          | V_bool _ -> raise (Conversion_error "expected numeric")
        in
        let boolean e =
          match eval t e with
          | V_bool f -> f
          | V_arith _ -> raise (Conversion_error "expected Boolean")
        in
        match e with
        | Lustre.E_var s -> signal s t
        | Lustre.E_const_q q -> V_arith (Expr.const q)
        | Lustre.E_const_b b -> V_bool (if b then Tseitin.True else Tseitin.False)
        | Lustre.E_add (a, b) -> V_arith (Expr.add (arith a) (arith b))
        | Lustre.E_sub (a, b) -> V_arith (Expr.sub (arith a) (arith b))
        | Lustre.E_mul (a, b) -> V_arith (Expr.mul (arith a) (arith b))
        | Lustre.E_div (a, b) -> V_arith (Expr.div (arith a) (arith b))
        | Lustre.E_pow (a, n) -> V_arith (Expr.pow (arith a) n)
        | Lustre.E_math (f, a) ->
          let ea = arith a in
          V_arith
            (match f with
            | Block.M_sqrt -> Expr.sqrt ea
            | Block.M_exp -> Expr.exp ea
            | Block.M_log -> Expr.log ea
            | Block.M_sin -> Expr.sin ea
            | Block.M_cos -> Expr.cos ea)
        | Lustre.E_cmp (c, a, b) ->
          let diff = Expr.sub (arith a) (arith b) in
          let rel = { Expr.expr = diff; op = op_of_comparison c; tag = 0 } in
          V_bool (Tseitin.atom (atom_of_rel (domain_of_expr diff) rel))
        | Lustre.E_and es -> V_bool (Tseitin.and_ (List.map boolean es))
        | Lustre.E_or es -> V_bool (Tseitin.or_ (List.map boolean es))
        | Lustre.E_not a -> V_bool (Tseitin.not_ (boolean a))
        | Lustre.E_delay (init, a) ->
          if t = 0 then V_arith (Expr.const init)
          else (
            match eval (t - 1) a with
            | V_arith x -> V_arith x
            | V_bool _ -> raise (Conversion_error "Boolean delay unsupported"))
      in
      let out_at t =
        match signal output t with
        | V_bool f -> f
        | V_arith _ ->
          raise (Conversion_error (Printf.sprintf "output %s is numeric" output))
      in
      let instants = List.init steps out_at in
      let formula =
        match goal with
        | `Find_violation -> Tseitin.or_ (List.map Tseitin.not_ instants)
        | `Find_witness -> Tseitin.or_ instants
      in
      let clauses, n_vars = Tseitin.assert_cnf ~num_vars:!next_bool formula in
      Ab_problem.ensure_bool_vars problem n_vars;
      List.iter (Ab_problem.add_clause problem) clauses;
      Ab_problem.set_projection problem (List.init !next_bool Fun.id);
      (match Ab_problem.validate problem with
      | Ok () -> ()
      | Error e -> raise (Conversion_error e));
      problem
    with
    | problem -> Ok problem
    | exception Conversion_error msg -> Error msg

let diagram_to_ab_bmc ?goal ?(name = "model") ~steps ~output d =
  match Lustre.of_diagram ~name d with
  | Error e -> Error e
  | Ok node -> node_to_ab_bmc ?goal ~steps ~output node
