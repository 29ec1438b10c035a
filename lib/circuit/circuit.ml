module Q = Absolver_numeric.Rational
module Expr = Absolver_nlp.Expr
module Linexpr = Absolver_lp.Linexpr

type gate =
  | G_input of int
  | G_const of bool
  | G_not of node
  | G_and of node list
  | G_or of node list
  | G_cmp of Expr.t * Linexpr.op

and node = { id : int; gate : gate }

(* Hash-consing on a structural key of the gate (children by id). *)
type key =
  | K_input of int
  | K_const of bool
  | K_not of int
  | K_and of int list
  | K_or of int list
  | K_cmp of Expr.t * Linexpr.op

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal = ( = )
  let mix h id = (h * 65599) + id

  let hash k =
    (match k with
    | K_input v -> mix 1 v
    | K_const c -> if c then 2 else 3
    | K_not n -> mix 4 n
    | K_and ns -> List.fold_left mix 5 ns
    | K_or ns -> List.fold_left mix 6 ns
    | K_cmp (e, op) -> mix (Expr.hash e) (Hashtbl.hash op))
    land max_int
end)

type builder = {
  mutable next_id : int;
  mutable nodes : node list; (* newest first *)
  table : node Key_tbl.t;
}

type t = { output : node; all : node array }

let builder () = { next_id = 0; nodes = []; table = Key_tbl.create 64 }

let ids ns = List.map (fun n -> n.id) ns

let key_of_gate = function
  | G_input v -> K_input v
  | G_const b -> K_const b
  | G_not n -> K_not n.id
  | G_and ns -> K_and (ids ns)
  | G_or ns -> K_or (ids ns)
  | G_cmp (e, op) -> K_cmp (e, op)

let mk b gate =
  let key = key_of_gate gate in
  match Key_tbl.find_opt b.table key with
  | Some n -> n
  | None ->
    let n = { id = b.next_id; gate } in
    b.next_id <- n.id + 1;
    b.nodes <- n :: b.nodes;
    Key_tbl.add b.table key n;
    n

let input b v = mk b (G_input v)
let const b v = mk b (G_const v)
let not_ b n = mk b (G_not n)

let and_ b ns =
  match ns with [ n ] -> n | [] -> const b true | _ -> mk b (G_and ns)

let or_ b ns =
  match ns with [ n ] -> n | [] -> const b false | _ -> mk b (G_or ns)

let cmp b e op = mk b (G_cmp (e, op))

let seal b ~output = { output; all = Array.of_list (List.rev b.nodes) }

let output t = t.output
let size t = Array.length t.all

let boolean_inputs t =
  Array.to_list t.all
  |> List.filter_map (fun n -> match n.gate with G_input v -> Some v | _ -> None)
  |> List.sort_uniq compare

let arithmetic_vars t =
  Array.to_list t.all
  |> List.concat_map (fun n ->
       match n.gate with G_cmp (e, _) -> Expr.vars e | _ -> [])
  |> List.sort_uniq compare

let comparisons t =
  Array.to_list t.all
  |> List.filter_map (fun n ->
       match n.gate with G_cmp (e, op) -> Some (n, e, op) | _ -> None)

let eval_cmp arith_env e op =
  let env v = arith_env v in
  let all_known = List.for_all (fun v -> env v <> None) (Expr.vars e) in
  if not all_known then Tribool.Unknown
  else
    match Expr.eval_exact (fun v -> Option.get (env v)) e with
    | None -> Tribool.Unknown (* outside the rationals: defer to solvers *)
    | Some q -> (
      let s = Q.sign q in
      Tribool.of_bool
        (match op with
        | Linexpr.Le -> s <= 0
        | Linexpr.Lt -> s < 0
        | Linexpr.Ge -> s >= 0
        | Linexpr.Gt -> s > 0
        | Linexpr.Eq -> s = 0))

let rec eval_node ~bool_env ~arith_env n =
  match n.gate with
  | G_input v -> bool_env v
  | G_const b -> Tribool.of_bool b
  | G_not m -> Tribool.not_ (eval_node ~bool_env ~arith_env m)
  | G_and ms -> Tribool.and_list (List.map (eval_node ~bool_env ~arith_env) ms)
  | G_or ms -> Tribool.or_list (List.map (eval_node ~bool_env ~arith_env) ms)
  | G_cmp (e, op) -> eval_cmp arith_env e op

let eval ~bool_env ~arith_env t = eval_node ~bool_env ~arith_env t.output

let to_dot ?(bool_name = fun v -> Printf.sprintf "b%d" v)
    ?(arith_name = fun v -> Printf.sprintf "x%d" v) t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph circuit {\n  rankdir=LR;\n";
  let edge src dst =
    Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" src dst)
  in
  Array.iter
    (fun n ->
      let label, shape =
        match n.gate with
        | G_input v -> (bool_name v, "circle")
        | G_const b -> ((if b then "tt" else "ff"), "plaintext")
        | G_not _ -> ("NOT", "invtriangle")
        | G_and _ -> ("AND", "trapezium")
        | G_or _ -> ("OR", "house")
        | G_cmp (e, op) ->
          ( Format.asprintf "%s %a 0" (Expr.to_string ~name:arith_name e)
              Linexpr.pp_op op,
            "box" )
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\", shape=%s];\n" n.id
           (String.concat "\\\"" (String.split_on_char '"' label))
           shape);
      match n.gate with
      | G_input _ | G_const _ | G_cmp _ -> ()
      | G_not m -> edge m.id n.id
      | G_and ms | G_or ms -> List.iter (fun m -> edge m.id n.id) ms)
    t.all;
  Buffer.add_string buf
    (Printf.sprintf "  out [label=\"output\", shape=doublecircle];\n  n%d -> out;\n"
       t.output.id);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
