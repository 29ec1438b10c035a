open Types
module Budget = Absolver_resource.Budget
module Faults = Absolver_resource.Faults

type clause = {
  mutable lits : int array;
  mutable activity : float;
  learnt : bool;
  mutable removed : bool;
}

let dummy_clause = { lits = [||]; activity = 0.0; learnt = false; removed = false }

type theory = {
  t_on_assign : lit -> unit;
  t_on_backtrack : int -> unit;
  t_check : final:bool -> lit list option;
}

type t = {
  mutable nvars : int;
  (* Per-variable state, indexed by var. *)
  mutable assign : int array; (* -1 undef, 0 false, 1 true *)
  mutable level : int array;
  mutable reason : clause array;
  mutable activity : float array;
  mutable saved_phase : Bool.t array;
  mutable seen : Bool.t array;
  mutable heap_pos : int array; (* -1 when not in heap *)
  (* Watches, indexed by literal: clauses in which this literal is
     watched, each entry paired with a blocking literal whose truth
     satisfies the clause — checking it avoids dereferencing the clause
     at all on most visits. Clause and blocker live in one flat merged
     structure ({!Watches}); removed clauses are swept out eagerly at
     reduction time, so propagation never sees a dead entry. *)
  mutable watches : clause Watches.t array;
  (* Trail. *)
  trail : int Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  (* Clause database. *)
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  (* VSIDS: a binary max-heap on activity in [heap.(0 .. heap_size - 1)].
     Each variable is in it at most once, so it grows with the
     per-variable arrays. *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable default_phase : bool;
  mutable ok : bool;
  stats : stats;
  theory : theory option;
  mutable max_learnts : float;
  mutable learnt_hook : (int list -> unit) option;
}

let create ?theory () =
  {
    nvars = 0;
    assign = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 dummy_clause;
    activity = Array.make 16 0.0;
    saved_phase = Array.make 16 false;
    seen = Array.make 16 false;
    heap_pos = Array.make 16 (-1);
    watches = Array.init 32 (fun _ -> Watches.create ~dummy:dummy_clause ());
    trail = Vec.create ~dummy:0 ();
    trail_lim = Vec.create ~dummy:0 ();
    qhead = 0;
    clauses = Vec.create ~dummy:dummy_clause ();
    learnts = Vec.create ~dummy:dummy_clause ();
    heap = Array.make 16 0;
    heap_size = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    default_phase = false;
    ok = true;
    stats = mk_stats ();
    theory;
    max_learnts = 0.0;
    learnt_hook = None;
  }

let num_vars s = s.nvars
let set_learnt_hook s f = s.learnt_hook <- Some f
let emit_learnt s lits = match s.learnt_hook with Some f -> f lits | None -> ()
let is_unsat s = not s.ok
let stats s = s.stats
let set_default_phase s b = s.default_phase <- b

(* ------------------------------------------------------------------ *)
(* Variable order heap (max-heap on activity).                         *)

(* Both percolations keep the moving variable [v] in a local and shift
   the elements it passes into the hole it leaves, writing [v] once, at
   its final slot. They make the comparisons, with the same strict [>],
   that swapping [v] level by level would, so every variable ends in the
   same slot and the pop order is that of the swapping heap. *)

let heap_up s i =
  let heap = s.heap and act = s.activity and pos = s.heap_pos in
  let v = heap.(i) in
  let a = act.(v) in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = heap.(parent) in
    if a > act.(p) then begin
      heap.(!i) <- p;
      pos.(p) <- !i;
      i := parent
    end
    else moving := false
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

let heap_down s i =
  let heap = s.heap and act = s.activity and pos = s.heap_pos in
  let n = s.heap_size in
  let v = heap.(i) in
  let a = act.(v) in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    (* The child that rises: the left one if it beats [v]; the right one
       instead if it beats the left one, or [v] when the left one does
       not. *)
    let child =
      if l >= n then -1
      else
        let la = act.(heap.(l)) in
        let r = l + 1 in
        if r < n then
          let ra = act.(heap.(r)) in
          if la > a then if ra > la then r else l
          else if ra > a then r
          else -1
        else if la > a then l
        else -1
    in
    if child < 0 then moving := false
    else begin
      let c = heap.(child) in
      heap.(!i) <- c;
      pos.(c) <- !i;
      i := child
    end
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    let i = s.heap_size in
    s.heap.(i) <- v;
    s.heap_size <- i + 1;
    heap_up s i
  end

let heap_remove_min s =
  let top = s.heap.(0) in
  s.heap_pos.(top) <- -1;
  let n = s.heap_size - 1 in
  s.heap_size <- n;
  if n > 0 then begin
    s.heap.(0) <- s.heap.(n);
    heap_down s 0
  end;
  top

(* ------------------------------------------------------------------ *)
(* Variable management.                                                *)

let grow_to s n =
  let old_cap = Array.length s.assign in
  if n > old_cap then begin
    let cap = max n (2 * old_cap) in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 old_cap;
      b
    in
    s.assign <- extend s.assign (-1);
    s.level <- extend s.level 0;
    s.reason <- extend s.reason dummy_clause;
    s.activity <- extend s.activity 0.0;
    s.saved_phase <- extend s.saved_phase s.default_phase;
    s.seen <- extend s.seen false;
    s.heap_pos <- extend s.heap_pos (-1);
    s.heap <- extend s.heap 0;
    let w = Array.init (2 * cap) (fun _ -> Watches.create ~dummy:dummy_clause ()) in
    Array.blit s.watches 0 w 0 (Array.length s.watches);
    s.watches <- w
  end

let new_var s =
  let v = s.nvars in
  grow_to s (v + 1);
  s.nvars <- v + 1;
  s.saved_phase.(v) <- s.default_phase;
  heap_insert s v;
  v

let ensure_vars s n = while s.nvars < n do ignore (new_var s) done

let lit_value s l =
  let a = s.assign.(l lsr 1) in
  if a < 0 then V_undef
  else if a lxor (l land 1) = 1 then V_true
  else V_false

let value s v =
  let a = s.assign.(v) in
  if a < 0 then V_undef else if a = 1 then V_true else V_false

let model s = Array.init s.nvars (fun v -> s.assign.(v) = 1)
let decision_level s = Vec.size s.trail_lim

(* ------------------------------------------------------------------ *)
(* Activity bumping.                                                   *)

let var_decay = 1.0 /. 0.95
let cla_decay = 1.0 /. 0.999

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  (* [v]'s activity only grew, and the rescaling multiplied every
     activity by the same factor, so no child beats it: percolating up
     restores the heap. *)
  let p = s.heap_pos.(v) in
  if p >= 0 then heap_up s p

let cla_bump s (c : clause) =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    Vec.iter (fun (c : clause) -> c.activity <- c.activity *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

(* ------------------------------------------------------------------ *)
(* Trail operations.                                                   *)

let enqueue s l reason =
  let v = l lsr 1 in
  assert (s.assign.(v) < 0);
  s.assign.(v) <- (l land 1) lxor 1;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l;
  (match s.theory with Some th -> th.t_on_assign l | None -> ())

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = l lsr 1 in
      s.saved_phase.(v) <- s.assign.(v) = 1;
      s.assign.(v) <- -1;
      s.reason.(v) <- dummy_clause;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- bound;
    match s.theory with Some th -> th.t_on_backtrack bound | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Clause attachment and propagation.                                  *)

let attach s c =
  assert (Array.length c.lits >= 2);
  Watches.push s.watches.(c.lits.(0)) c c.lits.(1);
  Watches.push s.watches.(c.lits.(1)) c c.lits.(0)

exception Conflict of clause

let propagate_lit s p =
  (* p just became true; visit clauses watching ~p. Every entry is live:
     reduction sweeps removed clauses out of the lists eagerly, so there
     is no dead-entry check on this path. *)
  let fl = p lxor 1 in
  let ws = s.watches.(fl) in
  let i = ref 0 in
  while !i < Watches.size ws do
    (* Blocking literal: if it is already true the clause is satisfied
       and need not be dereferenced at all. *)
    if lit_value s (Watches.blocker ws !i) = V_true then begin
      s.stats.blocked_visits <- s.stats.blocked_visits + 1;
      incr i
    end
    else begin
      let c = Watches.clause ws !i in
      (* Normalize: the false literal goes to position 1. *)
      if c.lits.(0) = fl then begin
        c.lits.(0) <- c.lits.(1);
        c.lits.(1) <- fl
      end;
      if lit_value s c.lits.(0) = V_true then begin
        Watches.set_blocker ws !i c.lits.(0);
        incr i
      end
      else begin
        (* Look for a new literal to watch. *)
        let n = Array.length c.lits in
        let rec find j = if j >= n then -1 else if lit_value s c.lits.(j) <> V_false then j else find (j + 1) in
        let j = find 2 in
        if j >= 0 then begin
          c.lits.(1) <- c.lits.(j);
          c.lits.(j) <- fl;
          Watches.push s.watches.(c.lits.(1)) c c.lits.(0);
          Watches.swap_remove ws !i
        end
        else if lit_value s c.lits.(0) = V_false then raise (Conflict c)
        else begin
          s.stats.propagations <- s.stats.propagations + 1;
          enqueue s c.lits.(0) c;
          Watches.set_blocker ws !i c.lits.(0);
          incr i
        end
      end
    end
  done

let propagate s =
  match
    while s.qhead < Vec.size s.trail do
      let p = Vec.get s.trail s.qhead in
      s.qhead <- s.qhead + 1;
      propagate_lit s p
    done
  with
  | () -> None
  | exception Conflict c -> Some c

(* ------------------------------------------------------------------ *)
(* Clause addition (level 0).                                          *)

let add_clause s lits =
  (* Clauses are added at level 0; any in-progress model is abandoned. *)
  cancel_until s 0;
  if s.ok then begin
    List.iter (fun l -> ensure_vars s ((l lsr 1) + 1)) lits;
    (* Sort, dedup, drop tautologies and false literals. *)
    let lits = List.sort_uniq compare lits in
    let tautology =
      let rec adjacent = function
        | a :: (b :: _ as rest) -> (a lxor b = 1 && a lsr 1 = b lsr 1) || adjacent rest
        | _ -> false
      in
      adjacent lits
    in
    if not tautology then begin
      let lits =
        List.filter
          (fun l ->
            match lit_value s l with
            | V_false -> s.level.(l lsr 1) > 0
            | V_true | V_undef -> true)
          lits
      in
      if List.exists (fun l -> lit_value s l = V_true && s.level.(l lsr 1) = 0) lits
      then () (* satisfied at level 0 *)
      else
        match lits with
        | [] ->
          s.ok <- false;
          emit_learnt s []
        | [ l ] -> (
          match lit_value s l with
          | V_true -> ()
          | V_false ->
            s.ok <- false;
            emit_learnt s []
          | V_undef -> (
            enqueue s l dummy_clause;
            match propagate s with
            | None -> ()
            | Some _ ->
              s.ok <- false;
              emit_learnt s []))
        | _ ->
          (* Watch the highest-variable literals (the sort above is
             ascending). Blocking clauses from model enumeration are
             emitted in descending variable order and consecutive models
             usually differ only in a low-variable suffix, so high-end
             watches stay untouched across most re-decisions. *)
          let c =
            {
              lits = Array.of_list (List.rev lits);
              activity = 0.0;
              learnt = false;
              removed = false;
            }
          in
          Vec.push s.clauses c;
          attach s c
    end
  end

(* ------------------------------------------------------------------ *)
(* Conflict analysis (first UIP).                                      *)

let analyze s confl =
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let index = ref (Vec.size s.trail - 1) in
  let cur_level = decision_level s in
  let c = ref confl in
  let continue_loop = ref true in
  while !continue_loop do
    if !c.learnt then cla_bump s !c;
    Array.iter
      (fun q ->
        if q <> !p then begin
          let v = q lsr 1 in
          if (not s.seen.(v)) && s.level.(v) > 0 then begin
            s.seen.(v) <- true;
            var_bump s v;
            if s.level.(v) >= cur_level then incr counter
            else learnt := q :: !learnt
          end
        end)
      !c.lits;
    (* Select next literal on the trail to resolve. *)
    let rec next i = if s.seen.(Vec.get s.trail i lsr 1) then i else next (i - 1) in
    index := next !index;
    p := Vec.get s.trail !index;
    decr index;
    s.seen.(!p lsr 1) <- false;
    decr counter;
    if !counter = 0 then continue_loop := false else c := s.reason.(!p lsr 1)
  done;
  let uip = !p lxor 1 in
  (* Cheap clause minimization: a literal is redundant if the reason of its
     variable exists and all other literals of that reason are marked. *)
  List.iter (fun q -> s.seen.(q lsr 1) <- true) !learnt;
  let redundant q =
    let r = s.reason.(q lsr 1) in
    r != dummy_clause
    && Array.length r.lits > 0
    && Array.for_all
         (fun l -> l lsr 1 = q lsr 1 || s.seen.(l lsr 1) || s.level.(l lsr 1) = 0)
         r.lits
  in
  let minimized = List.filter (fun q -> not (redundant q)) !learnt in
  List.iter (fun q -> s.seen.(q lsr 1) <- false) !learnt;
  let final = uip :: minimized in
  (* Backjump level: highest level among non-UIP literals. *)
  let back_level =
    List.fold_left (fun acc q -> max acc s.level.(q lsr 1)) 0 minimized
  in
  (final, back_level)

let record_learnt s lits =
  s.stats.learnt_literals <- s.stats.learnt_literals + List.length lits;
  emit_learnt s lits;
  match lits with
  | [] -> s.ok <- false
  | [ l ] -> enqueue s l dummy_clause
  | first :: _ ->
    let c =
      {
        lits = Array.of_list lits;
        activity = 0.0;
        learnt = true;
        removed = false;
      }
    in
    (* Watch the UIP and a literal from the backjump level so the clause
       stays well-watched after the jump: position 1 must hold a literal
       with the highest remaining level. *)
    let arr = c.lits in
    let best = ref 1 in
    for i = 2 to Array.length arr - 1 do
      if s.level.(arr.(i) lsr 1) > s.level.(arr.(!best) lsr 1) then best := i
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!best);
    arr.(!best) <- tmp;
    Vec.push s.learnts c;
    attach s c;
    cla_bump s c;
    enqueue s first c

(* ------------------------------------------------------------------ *)
(* Learnt clause DB reduction.                                         *)

let locked s c = Array.length c.lits > 0 && s.reason.(c.lits.(0) lsr 1) == c

(* Eager detach: drop the clause from both watcher lists right away. The
   two watched literals are always [lits.(0)] and [lits.(1)] (attach
   establishes this and propagation preserves it), so the sweep is two
   linear scans — paid once per reduction instead of leaving dead
   entries for every future propagation over those lists to skip. *)
let detach s c =
  c.removed <- true;
  Watches.remove_clause s.watches.(c.lits.(0)) c;
  Watches.remove_clause s.watches.(c.lits.(1)) c

let reduce_db s =
  s.stats.reductions <- s.stats.reductions + 1;
  Vec.sort (fun (a : clause) (b : clause) -> compare a.activity b.activity) s.learnts;
  let n = Vec.size s.learnts in
  let keep = Vec.create ~dummy:dummy_clause () in
  let limit = n / 2 in
  for i = 0 to n - 1 do
    let c = Vec.get s.learnts i in
    if i < limit && (not (locked s c)) && Array.length c.lits > 2
    then detach s c
    else Vec.push keep c
  done;
  Vec.clear s.learnts;
  (* The database just halved: return over-grown capacity before the
     kept clauses are pushed back, and sweep watcher lists the detach
     loop emptied out. *)
  Vec.compact s.learnts;
  Vec.iter (fun c -> Vec.push s.learnts c) keep;
  for l = 0 to (2 * s.nvars) - 1 do
    Watches.compact s.watches.(l)
  done

(* ------------------------------------------------------------------ *)
(* Search.                                                             *)

(* Luby restart sequence 1,1,2,1,1,2,4,... scaled by [y]. *)
let luby y x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y *. (2.0 ** float_of_int !seq)

let pick_branch_var s =
  let rec loop () =
    if s.heap_size = 0 then -1
    else
      let v = heap_remove_min s in
      if s.assign.(v) < 0 then v else loop ()
  in
  loop ()

exception Found_unsat
exception Found_sat
exception Assumption_failed

let theory_check s ~final =
  match s.theory with
  | None -> None
  | Some th -> (
    match th.t_check ~final with
    | None -> None
    | Some true_lits ->
      (* Learn the negation of the inconsistent set. *)
      Some (List.map (fun l -> l lxor 1) true_lits))

let handle_conflict_clause s clause_lits =
  (* Normalize a conflict expressed as a list of currently-false literals:
     backtrack so it is conflicting at its maximal level, then analyze. *)
  s.stats.conflicts <- s.stats.conflicts + 1;
  let max_level =
    List.fold_left (fun acc l -> max acc s.level.(l lsr 1)) 0 clause_lits
  in
  if max_level = 0 then raise Found_unsat;
  cancel_until s max_level;
  let c =
    {
      lits = Array.of_list clause_lits;
      activity = 0.0;
      learnt = true;
      removed = false;
    }
  in
  let learnt, back_level = analyze s c in
  cancel_until s back_level;
  record_learnt s learnt;
  s.var_inc <- s.var_inc *. var_decay;
  s.cla_inc <- s.cla_inc *. cla_decay

let search s budget assumptions conflict_budget =
  let conflicts_here = ref 0 in
  let rec loop () =
    Budget.tick budget;
    match propagate s with
    | Some confl ->
      s.stats.conflicts <- s.stats.conflicts + 1;
      incr conflicts_here;
      if decision_level s = 0 then raise Found_unsat;
      let learnt, back_level = analyze s confl in
      (* Backjumping below the assumption prefix is fine: assumptions are
         re-pushed as decisions by level number on the way back down. *)
      cancel_until s back_level;
      record_learnt s learnt;
      if not s.ok then raise Found_unsat;
      s.var_inc <- s.var_inc *. var_decay;
      s.cla_inc <- s.cla_inc *. cla_decay;
      if !conflicts_here >= conflict_budget then `Restart else loop ()
    | None -> (
      match theory_check s ~final:false with
      | Some clause -> (
        match clause with
        | [] -> raise Found_unsat
        | _ ->
          handle_conflict_clause s clause;
          if not s.ok then raise Found_unsat;
          loop ())
      | None ->
        if float_of_int (Vec.size s.learnts) >= s.max_learnts then reduce_db s;
        (* Assumption handling: the first [n] decisions are the assumptions. *)
        let dl = decision_level s in
        let next_decision =
          if dl < List.length assumptions then begin
            let a = List.nth assumptions dl in
            match lit_value s a with
            | V_true ->
              (* Already satisfied: open an empty level to keep the
                 level/assumption correspondence. *)
              Vec.push s.trail_lim (Vec.size s.trail);
              `Skip
            | V_false -> raise Assumption_failed
            | V_undef ->
              Vec.push s.trail_lim (Vec.size s.trail);
              enqueue s a dummy_clause;
              `Skip
          end
          else `Pick
        in
        match next_decision with
        | `Skip -> loop ()
        | `Pick ->
          let v = pick_branch_var s in
          if v < 0 then begin
            match theory_check s ~final:true with
            | Some clause ->
              (match clause with
              | [] -> raise Found_unsat
              | _ ->
                handle_conflict_clause s clause;
                if not s.ok then raise Found_unsat);
              loop ()
            | None -> raise Found_sat
          end
          else begin
            s.stats.decisions <- s.stats.decisions + 1;
            Vec.push s.trail_lim (Vec.size s.trail);
            let phase = s.saved_phase.(v) in
            enqueue s ((2 * v) + if phase then 0 else 1) dummy_clause;
            loop ()
          end)
  in
  loop ()

let solve ?(assumptions = []) ?(max_conflicts = max_int)
    ?(budget = Budget.unlimited) s =
  if not s.ok then Unsat
  else begin
    cancel_until s 0;
    s.max_learnts <- max 1000.0 (float_of_int (Vec.size s.clauses) /. 3.0);
    let result = ref Unknown in
    (try
       Faults.hit "sat.solve" budget;
       (* Fail fast when the budget tripped before this search began
          (e.g. during presolve): a fresh phase must not start on an
          exhausted budget just because the periodic poll hasn't fired. *)
       Budget.check_exn budget;
       let restart = ref 0 in
       let total_conflicts = ref 0 in
       while !result = Unknown do
         let conflict_budget = int_of_float (luby 100.0 !restart) in
         incr restart;
         s.stats.restarts <- s.stats.restarts + 1;
         (match search s budget assumptions conflict_budget with
         | `Restart ->
           total_conflicts := !total_conflicts + conflict_budget;
           if !total_conflicts >= max_conflicts then raise Exit;
           cancel_until s 0);
         ()
       done
     with
    | Found_sat -> result := Sat
    | Found_unsat ->
      s.ok <- false;
      emit_learnt s [];
      result := Unsat
    | Assumption_failed -> result := Unsat
    | Exit -> result := Unknown
    | Budget.Exhausted _ ->
      (* The reason stays sticky in the budget; the boundary contract is
         a plain Unknown, never an escaped exception. *)
      result := Unknown);
    (match !result with
    | Sat -> () (* keep trail for model reading *)
    | Unsat | Unknown -> cancel_until s 0);
    !result
  end
