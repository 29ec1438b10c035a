module Budget = Absolver_resource.Budget
module Faults = Absolver_resource.Faults
module Err = Absolver_resource.Absolver_error

type strategy = Incremental | Restarting

type t = {
  strategy : strategy;
  phase : bool;
  num_vars : int;
  (* [Restarting]: the loaded problem, as {!Cdcl.clauses} lists it. *)
  clauses : Types.lit list list;
  (* Blocks since the last [next], newest first. *)
  mutable pending : Types.lit list list;
  (* [Restarting]: every block before those, newest first. *)
  mutable blocked : Types.lit list list;
  mutable solver : Cdcl.t;
  (* [Restarting] after a search: rebuild before the next one. *)
  mutable stale : bool;
  (* The solver's cumulative stats after the last [next], and the work in
     between. *)
  mutable seen : Types.stats;
  mutable work : Types.stats;
  (* The last model read, refilled by every [model]. *)
  mutable buf : bool array;
}

let load ~num_vars clauses =
  let solver = Cdcl.create () in
  Cdcl.ensure_vars solver num_vars;
  Cdcl.load solver clauses;
  solver

let create ~phase strategy solver =
  Cdcl.set_default_phase solver phase;
  {
    strategy;
    phase;
    num_vars = Cdcl.num_vars solver;
    clauses = (match strategy with Restarting -> Cdcl.clauses solver | Incremental -> []);
    pending = [];
    blocked = [];
    solver;
    stale = false;
    seen = Types.mk_stats ();
    work = Types.mk_stats ();
    buf = [||];
  }

let diff (a : Types.stats) (b : Types.stats) =
  {
    Types.conflicts = a.conflicts - b.conflicts;
    decisions = a.decisions - b.decisions;
    propagations = a.propagations - b.propagations;
    restarts = a.restarts - b.restarts;
    learnt_literals = a.learnt_literals - b.learnt_literals;
    reductions = a.reductions - b.reductions;
    blocked_visits = a.blocked_visits - b.blocked_visits;
  }

let next ?max_conflicts ?budget t =
  if t.strategy = Restarting then t.blocked <- t.pending @ t.blocked;
  if t.stale then begin
    (* External restart: rebuild the entire solver, as the paper
       describes for black-box single-solution solvers. *)
    let solver = load ~num_vars:t.num_vars t.clauses in
    Cdcl.set_default_phase solver t.phase;
    List.iter (Cdcl.add_clause solver) t.blocked;
    t.solver <- solver;
    t.seen <- Types.mk_stats ()
  end
  else begin
    match t.pending with
    | [ clause ] -> Cdcl.add_blocking_clause t.solver clause
    | pending -> List.iter (Cdcl.add_clause t.solver) (List.rev pending)
  end;
  t.pending <- [];
  t.stale <- t.strategy = Restarting;
  let out = Cdcl.solve ?max_conflicts ?budget t.solver in
  let now = Cdcl.stats t.solver in
  t.work <- diff now t.seen;
  t.seen <- { now with Types.conflicts = now.Types.conflicts };
  out

let model t =
  let n = Cdcl.num_vars t.solver in
  if Array.length t.buf <> n then t.buf <- Array.make n false;
  Cdcl.read_model t.solver t.buf;
  t.buf

let work t = t.work

let block t clause = t.pending <- clause :: t.pending

let blocking ~projection model =
  List.rev_map
    (fun v -> if model.(v) then Types.neg_of_var v else Types.pos v)
    projection

let project ?projection model =
  match projection with
  | None -> Array.copy model
  | Some vs ->
    let m = Array.make (Array.length model) false in
    List.iter (fun v -> m.(v) <- model.(v)) vs;
    m

(* The typed reason an enumeration stopped early: a tripped budget wins
   over the solver's generic conflict-budget exhaustion. *)
let stop_reason budget =
  match Budget.tripped budget with
  | Some e -> e
  | None -> Err.Internal "model enumeration: conflict budget exhausted"

let enumerate ?(strategy = Incremental) ?projection ?(limit = max_int)
    ?(budget = Budget.unlimited) ~num_vars clauses =
  (* CDCL's own initial polarity. *)
  let t = create ~phase:false strategy (load ~num_vars clauses) in
  let vars =
    match projection with
    | Some vs -> vs
    | None -> List.init (Cdcl.num_vars t.solver) Fun.id
  in
  match
    Faults.hit "sat.all_sat" budget;
    let rec loop acc n =
      if n >= limit then Ok acc
      else
        match next ~budget t with
        | Types.Unsat -> Ok acc
        | Types.Unknown -> Error (stop_reason budget)
        | Types.Sat ->
          let m = model t in
          let acc = project ?projection m :: acc in
          (* An empty blocking clause means the projection is fully
             unconstrained: there is exactly one projected model. *)
          let clause = blocking ~projection:vars m in
          if clause = [] then Ok acc
          else begin
            block t clause;
            loop acc (n + 1)
          end
    in
    loop [] 0
  with
  | Ok acc -> Ok (List.rev acc)
  | Error e -> Error e
  | exception Budget.Exhausted e -> Error e

let count ?projection ?budget ~num_vars clauses =
  match enumerate ?projection ?budget ~num_vars clauses with
  | Ok models -> Ok (List.length models)
  | Error e -> Error e
