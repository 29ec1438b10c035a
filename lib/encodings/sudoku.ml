module Q = Absolver_numeric.Rational
module Expr = Absolver_nlp.Expr
module Linexpr = Absolver_lp.Linexpr
module Types = Absolver_sat.Types
module Ab_problem = Absolver_core.Ab_problem
module Solution = Absolver_core.Solution

type puzzle = int array array

let parse text =
  let digits =
    String.to_seq text
    |> Seq.filter_map (fun c ->
         if c >= '0' && c <= '9' then Some (Char.code c - Char.code '0')
         else if c = '.' then Some 0
         else if c = ' ' || c = '\n' || c = '\t' || c = '\r' || c = '|' || c = '-'
         then None
         else Some (-1))
    |> List.of_seq
  in
  if List.mem (-1) digits then Error "invalid character in puzzle"
  else if List.length digits <> 81 then
    Error (Printf.sprintf "expected 81 cells, got %d" (List.length digits))
  else begin
    let a = Array.make_matrix 9 9 0 in
    List.iteri (fun i d -> a.(i / 9).(i mod 9) <- d) digits;
    Ok a
  end

let to_string p =
  String.concat "\n"
    (List.init 9 (fun r ->
         String.concat ""
           (List.init 9 (fun c ->
                if p.(r).(c) = 0 then "." else string_of_int p.(r).(c)))))

let pp fmt p = Format.pp_print_string fmt (to_string p)

let groups =
  (* rows, columns, 3x3 boxes: lists of 9 cell coordinates *)
  List.init 9 (fun r -> List.init 9 (fun c -> (r, c)))
  @ List.init 9 (fun c -> List.init 9 (fun r -> (r, c)))
  @ List.concat
      (List.init 3 (fun br ->
           List.init 3 (fun bc ->
               List.concat
                 (List.init 3 (fun i ->
                      List.init 3 (fun j -> ((3 * br) + i, (3 * bc) + j)))))))

let is_complete_and_valid p =
  Array.for_all (fun row -> Array.for_all (fun d -> d >= 1 && d <= 9) row) p
  && List.for_all
       (fun cells ->
         let seen = Array.make 10 false in
         List.for_all
           (fun (r, c) ->
             let d = p.(r).(c) in
             if seen.(d) then false
             else begin
               seen.(d) <- true;
               true
             end)
           cells)
       groups

let respects_clues ~clues p =
  let ok = ref true in
  Array.iteri
    (fun r row ->
      Array.iteri (fun c d -> if d <> 0 && p.(r).(c) <> d then ok := false) row)
    clues;
  !ok

let cell_var problem r c = Ab_problem.intern_arith_var problem (Printf.sprintf "x_%d_%d" r c)

(* ------------------------------------------------------------------ *)
(* Mixed encoding for ABSOLVER.                                        *)

let absolver_problem puzzle =
  let problem = Ab_problem.create () in
  (* Order-encoding atoms: ge.(r).(c).(d) is the Boolean variable defined
     as x_rc >= d, for d = 2..9 (>= 1 holds by the bounds). *)
  let next = ref 0 in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  let ge = Array.init 9 (fun _ -> Array.init 9 (fun _ -> Array.make 10 (-1))) in
  for r = 0 to 8 do
    for c = 0 to 8 do
      let x = cell_var problem r c in
      Ab_problem.set_bounds problem x ~lower:Q.one ~upper:(Q.of_int 9) ();
      for d = 2 to 9 do
        let v = fresh () in
        ge.(r).(c).(d) <- v;
        Ab_problem.define problem ~bool_var:v ~domain:Ab_problem.Dint
          {
            Expr.expr = Expr.sub (Expr.var x) (Expr.of_int d);
            op = Linexpr.Ge;
            tag = v;
          }
      done
    done
  done;
  (* Redundant linear structure: every row, column and box sums to 45
     (one definitional variable per group, asserted true). *)
  List.iter
    (fun cells ->
      let sum = Expr.sum (List.map (fun (r, c) -> Expr.var (cell_var problem r c)) cells) in
      let v_le = fresh () and v_ge = fresh () in
      Ab_problem.define problem ~bool_var:v_le ~domain:Ab_problem.Dint
        { Expr.expr = Expr.sub sum (Expr.of_int 45); op = Linexpr.Le; tag = v_le };
      Ab_problem.define problem ~bool_var:v_ge ~domain:Ab_problem.Dint
        { Expr.expr = Expr.sub sum (Expr.of_int 45); op = Linexpr.Ge; tag = v_ge };
      Ab_problem.add_clause problem [ Types.pos v_le ];
      Ab_problem.add_clause problem [ Types.pos v_ge ])
    groups;
  (* Plain Boolean "cell = d" variables tied to the order atoms:
       eq_d <-> (x >= d) and not (x >= d+1). *)
  let eqv = Array.init 9 (fun _ -> Array.init 9 (fun _ -> Array.make 10 (-1))) in
  for r = 0 to 8 do
    for c = 0 to 8 do
      (* Chain clauses: (x >= d+1) -> (x >= d). *)
      for d = 2 to 8 do
        Ab_problem.add_clause problem
          [ Types.neg_of_var ge.(r).(c).(d + 1); Types.pos ge.(r).(c).(d) ]
      done;
      for d = 1 to 9 do
        let e = fresh () in
        eqv.(r).(c).(d) <- e;
        let lower = if d = 1 then None else Some ge.(r).(c).(d) in
        let upper = if d = 9 then None else Some ge.(r).(c).(d + 1) in
        (* e <-> lower /\ ~upper  (missing conjuncts are constants). *)
        (match lower with
        | Some l ->
          Ab_problem.add_clause problem [ Types.neg_of_var e; Types.pos l ]
        | None -> ());
        (match upper with
        | Some u ->
          Ab_problem.add_clause problem [ Types.neg_of_var e; Types.neg_of_var u ]
        | None -> ());
        let back =
          Types.pos e
          :: (match lower with Some l -> [ Types.neg_of_var l ] | None -> [])
          @ (match upper with Some u -> [ Types.pos u ] | None -> [])
        in
        Ab_problem.add_clause problem back
      done
    done
  done;
  (* Each digit appears exactly once in each group. *)
  List.iter
    (fun cells ->
      for d = 1 to 9 do
        Ab_problem.add_clause problem
          (List.map (fun (r, c) -> Types.pos eqv.(r).(c).(d)) cells);
        let rec pairwise = function
          | [] -> ()
          | (r1, c1) :: rest ->
            List.iter
              (fun (r2, c2) ->
                Ab_problem.add_clause problem
                  [ Types.neg_of_var eqv.(r1).(c1).(d); Types.neg_of_var eqv.(r2).(c2).(d) ])
              rest;
            pairwise rest
        in
        pairwise cells
      done)
    groups;
  (* Clues. *)
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun c d -> if d <> 0 then Ab_problem.add_clause problem [ Types.pos eqv.(r).(c).(d) ])
        row)
    puzzle;
  Ab_problem.set_projection problem
    (List.concat_map
       (fun (r, c) -> List.filter_map (fun d ->
            let v = eqv.(r).(c).(d) in
            if v >= 0 then Some v else None)
          (List.init 9 (fun d -> d + 1)))
       (List.init 81 (fun i -> (i / 9, i mod 9))));
  problem

(* ------------------------------------------------------------------ *)
(* Integer-heavy encoding for the baselines.                           *)

let baseline_problem puzzle =
  let problem = Ab_problem.create () in
  let next = ref 0 in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  for r = 0 to 8 do
    for c = 0 to 8 do
      let x = cell_var problem r c in
      Ab_problem.set_bounds problem x ~lower:Q.one ~upper:(Q.of_int 9) ()
    done
  done;
  (* Pairwise disequality within each group: (xi - xj >= 1) or
     (xj - xi >= 1); both sides are definitional atoms. *)
  let diff_atom a b =
    let v = fresh () in
    Ab_problem.define problem ~bool_var:v ~domain:Ab_problem.Dint
      {
        Expr.expr = Expr.sub (Expr.sub (Expr.var a) (Expr.var b)) (Expr.of_int 1);
        op = Linexpr.Ge;
        tag = v;
      };
    v
  in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun cells ->
      let rec pairwise = function
        | [] -> ()
        | (r1, c1) :: rest ->
          List.iter
            (fun (r2, c2) ->
              let key = (r1, c1, r2, c2) in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                let a = cell_var problem r1 c1 and b = cell_var problem r2 c2 in
                let v1 = diff_atom a b and v2 = diff_atom b a in
                Ab_problem.add_clause problem [ Types.pos v1; Types.pos v2 ]
              end)
            rest;
          pairwise rest
      in
      pairwise cells)
    groups;
  (* Clues as equalities (split to keep solvers' negation simple). *)
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun c d ->
          if d <> 0 then begin
            let x = cell_var problem r c in
            let v_le = fresh () and v_ge = fresh () in
            Ab_problem.define problem ~bool_var:v_le ~domain:Ab_problem.Dint
              { Expr.expr = Expr.sub (Expr.var x) (Expr.of_int d); op = Linexpr.Le; tag = v_le };
            Ab_problem.define problem ~bool_var:v_ge ~domain:Ab_problem.Dint
              { Expr.expr = Expr.sub (Expr.var x) (Expr.of_int d); op = Linexpr.Ge; tag = v_ge };
            Ab_problem.add_clause problem [ Types.pos v_le ];
            Ab_problem.add_clause problem [ Types.pos v_ge ]
          end)
        row)
    puzzle;
  problem

(* Pure-SAT encoding: e_{r,c,d} Booleans only. *)
let sat_problem puzzle =
  let problem = Ab_problem.create () in
  let e r c d = (((r * 9) + c) * 9) + (d - 1) in
  Ab_problem.ensure_bool_vars problem 729;
  (* Each cell holds at least one and at most one digit. *)
  for r = 0 to 8 do
    for c = 0 to 8 do
      Ab_problem.add_clause problem (List.init 9 (fun d -> Types.pos (e r c (d + 1))));
      for d1 = 1 to 9 do
        for d2 = d1 + 1 to 9 do
          Ab_problem.add_clause problem
            [ Types.neg_of_var (e r c d1); Types.neg_of_var (e r c d2) ]
        done
      done
    done
  done;
  (* Each digit appears exactly once per group. *)
  List.iter
    (fun cells ->
      for d = 1 to 9 do
        Ab_problem.add_clause problem
          (List.map (fun (r, c) -> Types.pos (e r c d)) cells);
        let rec pairwise = function
          | [] -> ()
          | (r1, c1) :: rest ->
            List.iter
              (fun (r2, c2) ->
                Ab_problem.add_clause problem
                  [ Types.neg_of_var (e r1 c1 d); Types.neg_of_var (e r2 c2 d) ])
              rest;
            pairwise rest
        in
        pairwise cells
      done)
    groups;
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun c d -> if d <> 0 then Ab_problem.add_clause problem [ Types.pos (e r c d) ])
        row)
    puzzle;
  problem

let decode problem solution =
  let p = Array.make_matrix 9 9 0 in
  for r = 0 to 8 do
    for c = 0 to 8 do
      match Ab_problem.arith_var_index problem (Printf.sprintf "x_%d_%d" r c) with
      | None -> ()
      | Some v ->
        let x = Solution.float_env solution ~default:0.0 v in
        p.(r).(c) <- int_of_float (Float.round x)
    done
  done;
  p
