module Q = Absolver_numeric.Rational
module Linexpr = Absolver_lp.Linexpr
module Budget = Absolver_resource.Budget
module Faults = Absolver_resource.Faults

type bounds = { lo : Q.t option array; hi : Q.t option array }

let create n = { lo = Array.make n None; hi = Array.make n None }
let copy b = { lo = Array.copy b.lo; hi = Array.copy b.hi }

(* Minimum/maximum of [expr] over the bounds box; [None] = unbounded. *)
let activity ~minimize b (e : Linexpr.t) =
  List.fold_left
    (fun acc (v, a) ->
      match acc with
      | None -> None
      | Some s ->
        let want_lo = if minimize then Q.gt a Q.zero else Q.lt a Q.zero in
        let bound = if want_lo then b.lo.(v) else b.hi.(v) in
        (match bound with
        | None -> None
        | Some q -> Some (Q.add s (Q.mul a q))))
    (Some (Linexpr.const e))
    (Linexpr.coeffs e)

let min_activity b e = activity ~minimize:true b e
let max_activity b e = activity ~minimize:false b e

type row_status = Redundant | Infeasible | Open

let status b (c : Linexpr.cons) =
  let mn = min_activity b c.Linexpr.expr and mx = max_activity b c.Linexpr.expr in
  match c.Linexpr.op with
  | Linexpr.Le -> (
    match (mn, mx) with
    | Some mn, _ when Q.gt mn Q.zero -> Infeasible
    | _, Some mx when Q.leq mx Q.zero -> Redundant
    | _ -> Open)
  | Linexpr.Lt -> (
    match (mn, mx) with
    | Some mn, _ when Q.geq mn Q.zero -> Infeasible
    | _, Some mx when Q.lt mx Q.zero -> Redundant
    | _ -> Open)
  | Linexpr.Ge -> (
    match (mn, mx) with
    | _, Some mx when Q.lt mx Q.zero -> Infeasible
    | Some mn, _ when Q.geq mn Q.zero -> Redundant
    | _ -> Open)
  | Linexpr.Gt -> (
    match (mn, mx) with
    | _, Some mx when Q.leq mx Q.zero -> Infeasible
    | Some mn, _ when Q.gt mn Q.zero -> Redundant
    | _ -> Open)
  | Linexpr.Eq -> (
    match (mn, mx) with
    | Some mn, _ when Q.gt mn Q.zero -> Infeasible
    | _, Some mx when Q.lt mx Q.zero -> Infeasible
    | Some mn, Some mx when Q.is_zero mn && Q.is_zero mx -> Redundant
    | _ -> Open)

(* Every row as a list of normalized [expr <= 0] (or [< 0]) forms. *)
let le_rows (c : Linexpr.cons) =
  match c.Linexpr.op with
  | Linexpr.Le -> [ (c.Linexpr.expr, false) ]
  | Linexpr.Lt -> [ (c.Linexpr.expr, true) ]
  | Linexpr.Ge -> [ (Linexpr.neg c.Linexpr.expr, false) ]
  | Linexpr.Gt -> [ (Linexpr.neg c.Linexpr.expr, true) ]
  | Linexpr.Eq -> [ (c.Linexpr.expr, false); (Linexpr.neg c.Linexpr.expr, false) ]

exception Crossed

(* Bound propagation on one normalized row sum a_i x_i + c {<=,<} 0: the
   residual minimum activity of the other terms implies a bound on each
   variable in turn. Raises [Crossed] when a derived bound crosses the
   opposite one (the row is infeasible within the bounds). *)
let tighten_row b ~is_int (e, strict) =
  let tightened = ref 0 in
  let coeffs = Linexpr.coeffs e in
  let c0 = Linexpr.const e in
  List.iter
    (fun (j, aj) ->
      let residual =
        List.fold_left
          (fun acc (v, a) ->
            if v = j then acc
            else
              match acc with
              | None -> None
              | Some s -> (
                let bound = if Q.gt a Q.zero then b.lo.(v) else b.hi.(v) in
                match bound with
                | None -> None
                | Some q -> Some (Q.add s (Q.mul a q))))
          (Some c0) coeffs
      in
      match residual with
      | None -> ()
      | Some r ->
        let bnd = Q.div (Q.neg r) aj in
        if Q.gt aj Q.zero then begin
          (* x_j <= bnd (strict: <) *)
          let bnd =
            if is_int j then
              if strict && Q.is_integer bnd then Q.sub bnd Q.one
              else Q.of_bigint (Q.floor bnd)
            else bnd
          in
          let improves =
            match b.hi.(j) with None -> true | Some old -> Q.lt bnd old
          in
          if improves then begin
            b.hi.(j) <- Some bnd;
            incr tightened;
            match b.lo.(j) with
            | Some lo when Q.gt lo bnd -> raise Crossed
            | _ -> ()
          end
        end
        else begin
          (* x_j >= bnd (strict: >) *)
          let bnd =
            if is_int j then
              if strict && Q.is_integer bnd then Q.add bnd Q.one
              else Q.of_bigint (Q.ceil bnd)
            else bnd
          in
          let improves =
            match b.lo.(j) with None -> true | Some old -> Q.gt bnd old
          in
          if improves then begin
            b.lo.(j) <- Some bnd;
            incr tightened;
            match b.hi.(j) with
            | Some hi when Q.lt hi bnd -> raise Crossed
            | _ -> ()
          end
        end)
    coeffs;
  !tightened

type outcome =
  | Infeasible_rows of int list
  | Presolved of { tightened : int; kept : Linexpr.cons list; dropped : int }

exception Found_infeasible of int

(* Propagation rounds per call. *)
let max_rounds = 4

let presolve ?(is_int = fun _ -> false) ?(budget = Budget.unlimited) b rows =
  let tightened = ref 0 and dropped = ref 0 in
  let active = ref rows in
  try
    Faults.hit "presolve.lp" budget;
    let continue_ = ref true and round = ref 0 in
    while !continue_ && !round < max_rounds do
      incr round;
      let t0 = !tightened in
      active :=
        List.filter
          (fun (c : Linexpr.cons) ->
            Budget.tick budget;
            match status b c with
            | Infeasible -> raise (Found_infeasible c.Linexpr.tag)
            | Redundant ->
              incr dropped;
              false
            | Open ->
              List.iter
                (fun row ->
                  try tightened := !tightened + tighten_row b ~is_int row
                  with Crossed -> raise (Found_infeasible c.Linexpr.tag))
                (le_rows c);
              true)
          !active;
      continue_ := !tightened > t0
    done;
    Presolved { tightened = !tightened; kept = !active; dropped = !dropped }
  with
  | Found_infeasible tag -> Infeasible_rows [ tag ]
  | Budget.Exhausted _ ->
    (* Early stop: bounds derived so far are sound relaxations; the rows
       of the interrupted pass stay in [kept] (conservative — a row
       filtered as redundant in that pass is merely kept). *)
    Presolved { tightened = !tightened; kept = !active; dropped = !dropped }
