open Types
module Budget = Absolver_resource.Budget
module Faults = Absolver_resource.Faults

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
  mutable reason : int array; (* arena offset, -1 for none *)
  mutable activity : float array;
  mutable saved_phase : Bool.t array;
  mutable seen : Bool.t array;
  mutable heap_pos : int array; (* -1 when not in heap *)
  (* Watches, indexed by literal: clauses in which this literal is
     watched, each entry paired with a blocking literal whose truth
     satisfies the clause — checking it avoids reading the clause at all
     on most visits. Removed clauses are swept out eagerly at reduction
     time, so propagation never sees a dead entry. *)
  watches : Watches.t;
  (* Clause arena: every stored clause, at its offset [c], is a header
     [arena.(c)] followed by its literals [arena.(c + 1 .. c + size)];
     a learnt clause has one more word, the index of its activity in
     [learnt_act]. The clauses fill [arena.(0 .. arena_size - 1)]. *)
  mutable arena : int array;
  mutable arena_size : int;
  (* Trail: the assigned literals in [trail.(0 .. trail_size - 1)], in
     order. Each variable is on it at most once, so it grows with the
     per-variable arrays. *)
  mutable trail : int array;
  mutable trail_size : int;
  (* Decision levels: level [k + 1] starts at [trail.(trail_lim.(k))],
     for [k < levels]; [levels] is the current decision level. *)
  mutable trail_lim : int array;
  mutable levels : int;
  mutable qhead : int;
  (* Clause database: the offsets of the stored non-learnt clauses in
     [clauses.(0 .. num_clauses - 1)], in arena order, and those of the
     learnt clauses in [learnts.(0 .. num_learnts - 1)]. The learnt
     clause [learnts.(i)] has its activity in [learnt_act.(i)]. *)
  mutable clauses : int array;
  mutable num_clauses : int;
  mutable learnts : int array;
  mutable learnt_act : float array;
  mutable num_learnts : int;
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
  (* Scratch for normalizing one clause before it is stored. *)
  mutable buf : int array;
  (* [add_blocking_clause] left a trail for the next [solve] to go on
     from, instead of starting at level 0. *)
  mutable resume : bool;
}

let create ?theory () =
  {
    nvars = 0;
    assign = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    saved_phase = Array.make 16 false;
    seen = Array.make 16 false;
    heap_pos = Array.make 16 (-1);
    watches = Watches.create 32;
    arena = [||];
    arena_size = 0;
    trail = Array.make 16 0;
    trail_size = 0;
    trail_lim = Array.make 16 0;
    levels = 0;
    qhead = 0;
    clauses = [||];
    num_clauses = 0;
    learnts = [||];
    learnt_act = [||];
    num_learnts = 0;
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
    buf = Array.make 16 0;
    resume = false;
  }

let num_vars s = s.nvars
let num_clauses s = s.num_clauses
let set_learnt_hook s f = s.learnt_hook <- Some f
let emit_learnt s lits = match s.learnt_hook with Some f -> f lits | None -> ()
let is_unsat s = not s.ok
let stats s = s.stats

let set_default_phase s b =
  s.default_phase <- b;
  Array.fill s.saved_phase 0 s.nvars b

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
    s.reason <- extend s.reason (-1);
    s.activity <- extend s.activity 0.0;
    s.saved_phase <- extend s.saved_phase s.default_phase;
    s.seen <- extend s.seen false;
    s.heap_pos <- extend s.heap_pos (-1);
    s.heap <- extend s.heap 0;
    s.trail <- extend s.trail 0;
    Watches.grow s.watches (2 * cap)
  end

let new_var s =
  let v = s.nvars in
  grow_to s (v + 1);
  s.nvars <- v + 1;
  s.saved_phase.(v) <- s.default_phase;
  heap_insert s v;
  v

let ensure_vars s n =
  grow_to s n;
  while s.nvars < n do ignore (new_var s) done

let lit_value s l =
  let a = s.assign.(l lsr 1) in
  if a < 0 then V_undef
  else if a lxor (l land 1) = 1 then V_true
  else V_false

let value s v =
  let a = s.assign.(v) in
  if a < 0 then V_undef else if a = 1 then V_true else V_false

let level s v = s.level.(v)

let read_model s (m : bool array) =
  for v = 0 to s.nvars - 1 do
    m.(v) <- s.assign.(v) = 1
  done

let model s =
  let m = Array.make s.nvars false in
  read_model s m;
  m

(* Open a decision level at the current end of the trail. *)
let new_level s =
  let k = s.levels in
  if k = Array.length s.trail_lim then begin
    let lim = Array.make (2 * k) 0 in
    Array.blit s.trail_lim 0 lim 0 k;
    s.trail_lim <- lim
  end;
  s.trail_lim.(k) <- s.trail_size;
  s.levels <- k + 1

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


(* ------------------------------------------------------------------ *)
(* The clause arena.                                                   *)

(* A clause's header is [size lsl 2 lor learnt lsl 1 lor removed]. While
   the arena is compacted, the header of a clause that stays also holds
   its new offset, from bit [fwd_shift] up; a header proper is below
   [1 lsl fwd_shift], so a clause has fewer than [1 lsl (fwd_shift - 2)]
   literals. *)
let fwd_shift = 32
let header_mask = (1 lsl fwd_shift) - 1

(* The words of a clause with header [h]: the header, the literals and,
   for a learnt clause, the index of its activity. *)
let words h = 1 + (h lsr 2) + ((h lsr 1) land 1)

let clause_size s c = s.arena.(c) lsr 2
let is_learnt s c = s.arena.(c) land 2 <> 0

(* [a], or a copy of its first [used] elements with room for [need]:
   exactly [need] of them with [exact], else at least twice as many as
   [a] has. *)
let fit a used need ~exact fill =
  if need <= Array.length a then a
  else begin
    let b = Array.make (if exact then need else max need (2 * Array.length a)) fill in
    Array.blit a 0 b 0 used;
    b
  end

(* Append the header of a clause of [n] literals to the arena, with room
   for its literals (and activity index); returns its offset. *)
let new_clause s n ~learnt =
  assert (n < 1 lsl (fwd_shift - 2));
  let c = s.arena_size in
  let h = (n lsl 2) lor if learnt then 2 else 0 in
  s.arena <- fit s.arena c (c + words h) ~exact:false 0;
  s.arena.(c) <- h;
  s.arena_size <- c + words h;
  c

let rescale_clause_activity s =
  for i = 0 to s.num_learnts - 1 do
    s.learnt_act.(i) <- s.learnt_act.(i) *. 1e-20
  done;
  s.cla_inc <- s.cla_inc *. 1e-20

let cla_bump s c =
  let k = s.arena.(c + 1 + clause_size s c) in
  let a = s.learnt_act.(k) +. s.cla_inc in
  s.learnt_act.(k) <- a;
  if a > 1e20 then rescale_clause_activity s

(* ------------------------------------------------------------------ *)
(* Trail operations.                                                   *)

let enqueue s l reason =
  let v = l lsr 1 in
  assert (s.assign.(v) < 0);
  s.assign.(v) <- (l land 1) lxor 1;
  s.level.(v) <- s.levels;
  s.reason.(v) <- reason;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1;
  (match s.theory with Some th -> th.t_on_assign l | None -> ())

let cancel_until s lvl =
  if s.levels > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto bound do
      let l = s.trail.(i) in
      let v = l lsr 1 in
      s.saved_phase.(v) <- s.assign.(v) = 1;
      s.assign.(v) <- -1;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.levels <- lvl;
    s.qhead <- bound;
    match s.theory with Some th -> th.t_on_backtrack bound | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Clause attachment and propagation.                                  *)

(* Watch clause [c] on its first two literals. *)
let attach s c =
  let a = s.arena in
  Watches.push s.watches a.(c + 1) c a.(c + 2);
  Watches.push s.watches a.(c + 2) c a.(c + 1)

exception Conflict of int

(* The first position of [arena] from [j] up to [stop] (excluded) whose
   literal is not false, or [-1]. A top-level function, not a closure
   over the clause, so the watch scan allocates nothing. *)
let rec find_watch assign (arena : int array) j stop =
  if j >= stop then -1
  else
    let l = arena.(j) in
    let a = assign.(l lsr 1) in
    if a < 0 || a lxor (l land 1) = 1 then j else find_watch assign arena (j + 1) stop

let propagate_lit s p =
  (* p just became true; visit clauses watching ~p. Every entry is live:
     reduction sweeps removed clauses out of the lists eagerly, so there
     is no dead-entry check on this path. The list and the arena are
     read in place, not through accessor calls; pushing a new watch
     never reallocates this list, whose literal is false. *)
  let fl = p lxor 1 in
  let w = s.watches in
  let ws = w.Watches.lists.(fl) in
  let assign = s.assign and arena = s.arena in
  let i = ref 0 in
  while !i < w.Watches.sizes.(fl) do
    (* Blocking literal: if it is already true the clause is satisfied
       and need not be read at all. *)
    let b = ws.((2 * !i) + 1) in
    let a = assign.(b lsr 1) in
    if a >= 0 && a lxor (b land 1) = 1 then begin
      s.stats.blocked_visits <- s.stats.blocked_visits + 1;
      incr i
    end
    else begin
      let c = ws.(2 * !i) in
      (* Normalize: the false literal goes to position 1. *)
      if arena.(c + 1) = fl then begin
        arena.(c + 1) <- arena.(c + 2);
        arena.(c + 2) <- fl
      end;
      let first = arena.(c + 1) in
      let a = assign.(first lsr 1) in
      if a >= 0 && a lxor (first land 1) = 1 then begin
        ws.((2 * !i) + 1) <- first;
        incr i
      end
      else begin
        (* Look for a new literal to watch. *)
        let j = find_watch assign arena (c + 3) (c + 1 + (arena.(c) lsr 2)) in
        if j >= 0 then begin
          let l = arena.(j) in
          arena.(c + 2) <- l;
          arena.(j) <- fl;
          Watches.push w l c first;
          Watches.swap_remove w fl !i
        end
        else if a >= 0 then raise (Conflict c)
        else begin
          s.stats.propagations <- s.stats.propagations + 1;
          enqueue s first c;
          ws.((2 * !i) + 1) <- first;
          incr i
        end
      end
    end
  done

let propagate s =
  match
    while s.qhead < s.trail_size do
      let p = s.trail.(s.qhead) in
      s.qhead <- s.qhead + 1;
      propagate_lit s p
    done
  with
  | () -> None
  | exception Conflict c -> Some c

(* ------------------------------------------------------------------ *)
(* Clause addition (level 0).                                          *)

(* Everything below but [add_blocking_clause] runs at decision level 0,
   where every assigned variable is fixed for good. *)

let rec descending (a : int array) i n =
  i + 1 >= n || (a.(i) >= a.(i + 1) && descending a (i + 1) n)

(* Sort [a.(0 .. n - 1)] into descending order, in place for short
   clauses and for the blocking clauses of model enumeration, which
   arrive sorted. *)
let sort_desc (a : int array) n =
  if descending a 0 n then ()
  else if n <= 32 then
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) < x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let sub = Array.sub a 0 n in
    Array.sort (fun x y -> Int.compare y x) sub;
    Array.blit sub 0 a 0 n
  end

let reserve s n =
  let old = s.buf in
  if n > Array.length old then begin
    s.buf <- Array.make (max n (2 * Array.length old)) 0;
    Array.blit old 0 s.buf 0 (Array.length old)
  end

(* The number of variables [clause] needs, at least [m]. *)
let rec max_var m = function
  | [] -> m
  | l :: rest -> max_var (if (l lsr 1) + 1 > m then (l lsr 1) + 1 else m) rest

(* Copy a clause into [b] from position [i] on; returns the end. *)
let rec copy_lits (b : int array) i = function
  | [] -> i
  | l :: rest ->
    b.(i) <- l;
    copy_lits b (i + 1) rest

(* Normalize the clause in [s.buf.(0 .. n - 1)]: sort it descending, merge
   duplicates and drop the literals false at level 0. Returns the length
   left, or [-1] when the clause is a tautology or already satisfied at
   level 0. Assignments above level 0 are left alone. *)
let normalize s n =
  let b = s.buf in
  sort_desc b n;
  let m = ref 0 and prev = ref (-1) and i = ref 0 in
  while !i < n do
    let l = b.(!i) in
    incr i;
    if l <> !prev then begin
      let v = l lsr 1 in
      let a = if s.level.(v) = 0 then s.assign.(v) else -1 in
      if l lxor 1 = !prev || (a >= 0 && a lxor (l land 1) = 1) then begin
        m := -1;
        i := n
      end
      else if a < 0 then begin
        b.(!m) <- l;
        incr m
      end;
      prev := l
    end
  done;
  !m

let root_conflict s =
  s.ok <- false;
  emit_learnt s []

(* Store the normalized clause [s.buf.(0 .. n - 1)]: the empty clause
   refutes the instance, a unit is enqueued (the caller propagates), and
   a longer clause is appended to the arena and the clause list, for the
   caller to watch on its two highest literals; returns its offset, or
   [-1] when nothing was stored. Blocking clauses from model enumeration
   are emitted in descending variable order and consecutive models
   usually differ only in a low-variable suffix, so high-end watches
   stay untouched across most re-decisions. *)
let store s n =
  match n with
  | -1 -> -1
  | 0 ->
    root_conflict s;
    -1
  | 1 ->
    enqueue s s.buf.(0) (-1);
    -1
  | n ->
    let c = new_clause s n ~learnt:false in
    Array.blit s.buf 0 s.arena (c + 1) n;
    let k = s.num_clauses in
    s.clauses <- fit s.clauses k (k + 1) ~exact:false 0;
    s.clauses.(k) <- c;
    s.num_clauses <- k + 1;
    c

let add_clause s lits =
  (* Clauses are added at level 0; any in-progress model is abandoned. *)
  cancel_until s 0;
  if s.ok then begin
    ensure_vars s (max_var 0 lits);
    reserve s (List.length lits);
    let n = normalize s (copy_lits s.buf 0 lits) in
    let c = store s n in
    if c >= 0 then attach s c;
    if n = 1 && propagate s <> None then root_conflict s
  end

(* Trail reuse (van der Tak, Ramos & Heule, JSAT 2011). After a model,
   [add_clause] backtracks to level 0 and the search decides again what
   the heap pops first: while that is the decision variable of the next
   old level, propagation rebuilds the level as it was. Those levels are
   kept instead, up to the first pop that differs. *)

(* Pop the levels a restart would rebuild, given that the heap holds
   every variable [cancel_until 0] would put there, and stop below level
   [stop]. A pop assigned at a kept level is one the search would skip.
   Returns the number of levels kept; the variable that differs stays on
   top of the heap, for the search to decide. *)
let rec keep_levels s kept stop =
  if s.heap_size = 0 then kept
  else
    let v = s.heap.(0) in
    let assigned = s.assign.(v) >= 0 and lv = s.level.(v) in
    if assigned && lv <= kept then begin
      ignore (heap_remove_min s);
      keep_levels s kept stop
    end
    else if
      assigned && lv = kept + 1 && lv < stop
      && s.trail.(s.trail_lim.(kept)) lsr 1 = v
    then begin
      ignore (heap_remove_min s);
      keep_levels s lv stop
    end
    else kept

(* Swap the first unassigned literal of [s.buf] from position [k] on
   into position [k]. *)
let watch_unassigned s k =
  let b = s.buf in
  let j = ref k in
  while s.assign.(b.(!j) lsr 1) >= 0 do incr j done;
  let l = b.(!j) in
  b.(!j) <- b.(k);
  b.(k) <- l

let add_blocking_clause s lits =
  if s.levels = 0 || (not s.ok) || max_var 0 lits > s.nvars then add_clause s lits
  else begin
    reserve s (List.length lits);
    let n = normalize s (copy_lits s.buf 0 lits) in
    (* The two highest levels of its literals, when every one is false. *)
    let falsified = ref (n >= 0) and top = ref 0 and second = ref 0 in
    for i = 0 to n - 1 do
      let l = s.buf.(i) in
      let a = s.assign.(l lsr 1) in
      if a < 0 || a lxor (l land 1) = 1 then falsified := false
      else begin
        let lv = s.level.(l lsr 1) in
        if lv > !top then begin
          second := !top;
          top := lv
        end
        else if lv > !second then second := lv
      end
    done;
    if (not !falsified) || !second = 0 then add_clause s lits
    else begin
      (* What [cancel_until 0] does to the heap, in its order. *)
      for i = s.trail_size - 1 downto s.trail_lim.(0) do
        heap_insert s (s.trail.(i) lsr 1)
      done;
      (* Below its second-highest level the clause has two unassigned
         literals, and the levels a restart rebuilds are the same with it. *)
      cancel_until s (keep_levels s 0 !second);
      watch_unassigned s 0;
      watch_unassigned s 1;
      attach s (store s n);
      s.resume <- true
    end
  end

(* Run [f] without counting its propagations: level-0 work done before
   the search is presolve's, not the search's. *)
let uncounted s f =
  let st = s.stats in
  let props = st.propagations and blocked = st.blocked_visits in
  f ();
  st.propagations <- props;
  st.blocked_visits <- blocked

let root_propagate s = if s.ok && propagate s <> None then root_conflict s

(* Probing stops starting probes once they and the units they found have
   propagated this many literals. *)
let probe_cap = 65_536

(* Assume [l] one level up and propagate; [false] on a conflict. The
   assignment is undone by hand, not by [cancel_until], so saved phases
   and the decision heap are left as they were. *)
let probe_lit s l =
  let mark = s.trail_size in
  new_level s;
  enqueue s l (-1);
  let ok = propagate s = None in
  for i = mark to s.trail_size - 1 do
    let v = s.trail.(i) lsr 1 in
    s.assign.(v) <- -1;
    s.reason.(v) <- -1
  done;
  s.trail_size <- mark;
  s.levels <- 0;
  s.qhead <- mark;
  (match s.theory with Some th -> th.t_on_backtrack mark | None -> ());
  ok

let probe ?(budget = Budget.unlimited) s =
  cancel_until s 0;
  let failed = ref 0 in
  uncounted s (fun () ->
      let start = s.stats.propagations in
      let fix l =
        incr failed;
        enqueue s l (-1);
        root_propagate s
      in
      let v = ref 0 in
      try
        while s.ok && !v < s.nvars && s.stats.propagations - start < probe_cap do
          Budget.tick budget;
          if s.assign.(!v) < 0 then begin
            let p = 2 * !v in
            if not (probe_lit s p) then fix (p lxor 1)
            else if not (probe_lit s (p lxor 1)) then fix p
          end;
          incr v
        done
      with Budget.Exhausted _ -> ());
  !failed

(* ------------------------------------------------------------------ *)
(* Arena compaction.                                                   *)

(* A compaction slides the clauses that stay down over those that go,
   keeping their order, as MiniSat's region allocator relocates clauses
   at garbage collection. [plan] gives each clause that stays its new
   offset, kept in its header until it moves; the caller then relocates
   every offset it holds with [moved] (dropping those [gone] says go),
   and [slide] moves the clauses. *)

(* The literals clause [c] keeps: all of them, or with [strip] its
   unassigned ones; -1 when it goes, because it was removed or, with
   [strip], a root assignment satisfies it. *)
let kept_size s ~strip c =
  let h = s.arena.(c) in
  if h land 1 = 1 then -1
  else if not strip then h lsr 2
  else begin
    let n = ref 0 and sat = ref false in
    for k = c + 1 to c + (h lsr 2) do
      let l = s.arena.(k) in
      let a = s.assign.(l lsr 1) in
      if a < 0 then incr n else if a lxor (l land 1) = 1 then sat := true
    done;
    if !sat then -1
    else begin
      assert (!n >= 2);
      !n
    end
  end

let plan s ~strip =
  let arena = s.arena in
  let c = ref 0 and d = ref 0 in
  while !c < s.arena_size do
    let h = arena.(!c) in
    let m = kept_size s ~strip !c in
    if m < 0 then arena.(!c) <- h lor 1
    else begin
      arena.(!c) <- (!d lsl fwd_shift) lor h;
      d := !d + 1 + m + ((h lsr 1) land 1)
    end;
    c := !c + words h
  done

let gone s c = s.arena.(c) land 1 = 1
let moved s c = s.arena.(c) lsr fwd_shift

(* Move every clause that stays to its planned offset; with [strip],
   without its false literals and sorted descending. *)
let slide s ~strip =
  let arena = s.arena in
  let c = ref 0 and top = ref 0 in
  while !c < s.arena_size do
    let h = arena.(!c) land header_mask in
    if h land 1 = 0 then begin
      let d = arena.(!c) lsr fwd_shift in
      if strip then begin
        let n = h lsr 2 and learnt = h land 2 in
        reserve s n;
        let m = ref 0 in
        for k = !c + 1 to !c + n do
          let l = arena.(k) in
          if s.assign.(l lsr 1) < 0 then begin
            s.buf.(!m) <- l;
            incr m
          end
        done;
        sort_desc s.buf !m;
        let slot = if learnt = 0 then 0 else arena.(!c + 1 + n) in
        arena.(d) <- (!m lsl 2) lor learnt;
        Array.blit s.buf 0 arena (d + 1) !m;
        if learnt <> 0 then arena.(d + 1 + !m) <- slot;
        top := d + words arena.(d)
      end
      else begin
        Array.blit arena !c arena d (words h);
        arena.(d) <- h;
        top := d + words h
      end
    end;
    c := !c + words h
  done;
  s.arena_size <- !top

(* Watch the stored clauses from [clauses.(from)] on and then, with
   [learnts], every learnt clause, in that order; each watch list grows
   once, to its final length. *)
let attach_all s ~from ~learnts =
  let each f =
    let watch c =
      f s.arena.(c + 1);
      f s.arena.(c + 2)
    in
    for i = from to s.num_clauses - 1 do watch s.clauses.(i) done;
    if learnts then for i = 0 to s.num_learnts - 1 do watch s.learnts.(i) done
  in
  Watches.reserve s.watches each;
  for i = from to s.num_clauses - 1 do attach s s.clauses.(i) done;
  if learnts then for i = 0 to s.num_learnts - 1 do attach s s.learnts.(i) done

(* Keep the clauses no root assignment satisfies, in order, each
   without its false literals and sorted descending, and watch them
   again. *)
let compact s =
  cancel_until s 0;
  uncounted s (fun () -> root_propagate s);
  if s.ok then begin
    plan s ~strip:true;
    let k = ref 0 in
    for i = 0 to s.num_clauses - 1 do
      let c = s.clauses.(i) in
      if not (gone s c) then begin
        s.clauses.(!k) <- moved s c;
        incr k
      end
    done;
    s.num_clauses <- !k;
    (* A learnt clause that stays takes the next activity index. *)
    k := 0;
    for i = 0 to s.num_learnts - 1 do
      let c = s.learnts.(i) in
      if not (gone s c) then begin
        s.arena.(c + 1 + ((s.arena.(c) land header_mask) lsr 2)) <- !k;
        s.learnts.(!k) <- moved s c;
        s.learnt_act.(!k) <- s.learnt_act.(i);
        incr k
      end
    done;
    s.num_learnts <- !k;
    slide s ~strip:true;
    (* Root assignments need no reasons. *)
    for i = 0 to s.trail_size - 1 do
      s.reason.(s.trail.(i) lsr 1) <- -1
    done;
    Watches.clear s.watches;
    attach_all s ~from:0 ~learnts:true
  end

let load s clauses =
  cancel_until s 0;
  let top = ref 0 and longest = ref 0 and stored = ref 0 and arena_words = ref 0 in
  List.iter
    (fun c ->
      top := max_var !top c;
      let n = List.length c in
      if n > !longest then longest := n;
      if n >= 2 then begin
        incr stored;
        arena_words := !arena_words + 1 + n
      end)
    clauses;
  ensure_vars s !top;
  reserve s !longest;
  (* The arena and the clause list grow once, to hold every clause. *)
  s.arena <- fit s.arena s.arena_size (s.arena_size + !arena_words) ~exact:true 0;
  s.clauses <- fit s.clauses s.num_clauses (s.num_clauses + !stored) ~exact:true 0;
  (* Units first, so every longer clause is stored without the literals
     they falsify. *)
  List.iter
    (fun c ->
      if s.ok then
        match c with
        | [] -> root_conflict s
        | [ l ] -> (
          match lit_value s l with
          | V_undef -> enqueue s l (-1)
          | V_false -> root_conflict s
          | V_true -> ())
        | _ -> ())
    clauses;
  let first = s.num_clauses in
  List.iter
    (function
      | [] | [ _ ] -> ()
      | lits -> if s.ok then ignore (store s (normalize s (copy_lits s.buf 0 lits))))
    clauses;
  (* Each watch list gets, in order, the entries storing the clauses one
     by one would have pushed. *)
  attach_all s ~from:first ~learnts:false;
  compact s

let fixed s =
  List.init
    (if s.levels = 0 then s.trail_size else s.trail_lim.(0))
    (Array.get s.trail)

let clauses s =
  let lits c = List.init (clause_size s c) (fun k -> s.arena.(c + 1 + k)) in
  List.map (fun l -> [ l ]) (fixed s) @ List.init s.num_clauses (fun i -> lits s.clauses.(i))

(* ------------------------------------------------------------------ *)
(* Conflict analysis (first UIP).                                      *)

(* The last trail position at or below [i] whose variable is marked. *)
let rec next_seen s i = if s.seen.(s.trail.(i) lsr 1) then i else next_seen s (i - 1)

(* Analyze the conflicting clause [lits.(lo .. hi - 1)]: a stored clause
   in the arena, or a theory's conflict in [s.buf]. The caller has bumped
   its activity. *)
let analyze s (lits : int array) lo hi =
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let index = ref (s.trail_size - 1) in
  let cur_level = s.levels in
  let lits = ref lits and lo = ref lo and hi = ref hi in
  let continue_loop = ref true in
  while !continue_loop do
    for k = !lo to !hi - 1 do
      let q = !lits.(k) in
      if q <> !p then begin
        let v = q lsr 1 in
        if (not s.seen.(v)) && s.level.(v) > 0 then begin
          s.seen.(v) <- true;
          var_bump s v;
          if s.level.(v) >= cur_level then incr counter
          else learnt := q :: !learnt
        end
      end
    done;
    (* Select next literal on the trail to resolve. *)
    index := next_seen s !index;
    p := s.trail.(!index);
    decr index;
    s.seen.(!p lsr 1) <- false;
    decr counter;
    if !counter = 0 then continue_loop := false
    else begin
      let r = s.reason.(!p lsr 1) in
      if r < 0 then hi := !lo
      else begin
        if is_learnt s r then cla_bump s r;
        lits := s.arena;
        lo := r + 1;
        hi := r + 1 + clause_size s r
      end
    end
  done;
  let uip = !p lxor 1 in
  (* Cheap clause minimization: a literal is redundant if the reason of its
     variable exists and all other literals of that reason are marked. *)
  List.iter (fun q -> s.seen.(q lsr 1) <- true) !learnt;
  let redundant q =
    let r = s.reason.(q lsr 1) in
    let rec marked k =
      k > r + clause_size s r
      ||
      let l = s.arena.(k) in
      (l lsr 1 = q lsr 1 || s.seen.(l lsr 1) || s.level.(l lsr 1) = 0) && marked (k + 1)
    in
    r >= 0 && marked (r + 1)
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
  | [ l ] -> enqueue s l (-1)
  | first :: _ ->
    let n = List.length lits in
    let c = new_clause s n ~learnt:true in
    let a = s.arena in
    ignore (copy_lits a (c + 1) lits);
    (* Watch the UIP and a literal from the backjump level so the clause
       stays well-watched after the jump: position 1 must hold a literal
       with the highest remaining level. *)
    let best = ref (c + 2) in
    for i = c + 3 to c + n do
      if s.level.(a.(i) lsr 1) > s.level.(a.(!best) lsr 1) then best := i
    done;
    let tmp = a.(c + 2) in
    a.(c + 2) <- a.(!best);
    a.(!best) <- tmp;
    let k = s.num_learnts in
    s.learnts <- fit s.learnts k (k + 1) ~exact:false 0;
    s.learnt_act <- fit s.learnt_act k (k + 1) ~exact:false 0.0;
    s.learnts.(k) <- c;
    s.learnt_act.(k) <- 0.0;
    a.(c + 1 + n) <- k;
    s.num_learnts <- k + 1;
    attach s c;
    cla_bump s c;
    enqueue s first c

(* ------------------------------------------------------------------ *)
(* Learnt clause DB reduction.                                         *)

let locked s c = s.reason.(s.arena.(c + 1) lsr 1) = c

(* The entry of clause [c] among the first [n] of watch list [a], or
   [-1]. *)
let rec watch_index (a : int array) c i n =
  if i >= n then -1 else if a.(2 * i) = c then i else watch_index a c (i + 1) n

(* Eager detach: mark the clause removed and drop it from both watcher
   lists right away. The two watched literals are always its first two
   (attach establishes this and propagation preserves it), so the sweep
   is two linear scans — paid once per reduction instead of leaving dead
   entries for every future propagation over those lists to skip. *)
let detach s c =
  s.arena.(c) <- s.arena.(c) lor 1;
  let w = s.watches in
  for k = 1 to 2 do
    let l = s.arena.(c + k) in
    let i = watch_index w.Watches.lists.(l) c 0 w.Watches.sizes.(l) in
    if i >= 0 then Watches.swap_remove w l i
  done

let reduce_db s =
  s.stats.reductions <- s.stats.reductions + 1;
  let n = s.num_learnts in
  let offsets = Array.sub s.learnts 0 n and act = Array.sub s.learnt_act 0 n in
  (* Activity indices, least active first. They are the clauses'
     positions in the list, so this sorts the list by activity. *)
  let order = Array.init n Fun.id in
  Array.sort (fun i j -> Float.compare act.(i) act.(j)) order;
  let limit = n / 2 in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let c = offsets.(order.(i)) in
    if i < limit && (not (locked s c)) && clause_size s c > 2 then detach s c
    else begin
      s.learnts.(!kept) <- c;
      s.learnt_act.(!kept) <- act.(order.(i));
      s.arena.(c + 1 + clause_size s c) <- !kept;
      incr kept
    end
  done;
  s.num_learnts <- !kept;
  (* Shrink the watcher lists the detach loop emptied out, slide the
     removed clauses out of the arena, and relocate every offset held
     in a watch list, a reason or a clause list. *)
  let w = s.watches in
  for l = 0 to (2 * s.nvars) - 1 do
    Watches.compact w l
  done;
  plan s ~strip:false;
  for l = 0 to (2 * s.nvars) - 1 do
    let a = w.Watches.lists.(l) in
    for i = 0 to w.Watches.sizes.(l) - 1 do
      a.(2 * i) <- moved s a.(2 * i)
    done
  done;
  for i = 0 to s.trail_size - 1 do
    let v = s.trail.(i) lsr 1 in
    if s.reason.(v) >= 0 then s.reason.(v) <- moved s s.reason.(v)
  done;
  for i = 0 to s.num_clauses - 1 do
    s.clauses.(i) <- moved s s.clauses.(i)
  done;
  for i = 0 to s.num_learnts - 1 do
    s.learnts.(i) <- moved s s.learnts.(i)
  done;
  slide s ~strip:false

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

let rec pick_branch_var s =
  if s.heap_size = 0 then -1
  else
    let v = heap_remove_min s in
    if s.assign.(v) < 0 then v else pick_branch_var s

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
  (* The clause is analyzed in the scratch buffer, as a learnt clause of
     activity 0 that is not stored: bumping it only rescales the stored
     clauses' activities, when the increment itself passes the bound. *)
  reserve s (List.length clause_lits);
  let n = copy_lits s.buf 0 clause_lits in
  if s.cla_inc > 1e20 then rescale_clause_activity s;
  let learnt, back_level = analyze s s.buf 0 n in
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
      if s.levels = 0 then raise Found_unsat;
      if is_learnt s confl then cla_bump s confl;
      let learnt, back_level =
        analyze s s.arena (confl + 1) (confl + 1 + clause_size s confl)
      in
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
        if float_of_int s.num_learnts >= s.max_learnts then reduce_db s;
        (* Assumption handling: the first [n] decisions are the assumptions. *)
        let dl = s.levels in
        let next_decision =
          if dl < List.length assumptions then begin
            let a = List.nth assumptions dl in
            match lit_value s a with
            | V_true ->
              (* Already satisfied: open an empty level to keep the
                 level/assumption correspondence. *)
              new_level s;
              `Skip
            | V_false -> raise Assumption_failed
            | V_undef ->
              new_level s;
              enqueue s a (-1);
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
            new_level s;
            let phase = s.saved_phase.(v) in
            enqueue s ((2 * v) + if phase then 0 else 1) (-1);
            loop ()
          end)
  in
  loop ()

let solve ?(assumptions = []) ?(max_conflicts = max_int)
    ?(budget = Budget.unlimited) s =
  if not s.ok then Unsat
  else begin
    let resume = s.resume && assumptions = [] in
    s.resume <- false;
    if not resume then cancel_until s 0;
    s.max_learnts <- max 1000.0 (float_of_int s.num_clauses /. 3.0);
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
