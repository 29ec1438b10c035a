module Types = Absolver_sat.Types
module Budget = Absolver_resource.Budget
module Faults = Absolver_resource.Faults

type stats = {
  mutable fixed_literals : int;
  mutable pure_literals : int;
  mutable removed_clauses : int;
  mutable strengthened_literals : int;
  mutable probes : int;
  mutable failed_literals : int;
}

let mk_stats () =
  {
    fixed_literals = 0;
    pure_literals = 0;
    removed_clauses = 0;
    strengthened_literals = 0;
    probes = 0;
    failed_literals = 0;
  }

type simplified = {
  clauses : Types.lit list list;
  fixed : (Types.var * bool) list;
  pure : (Types.var * bool) list;
  stats : stats;
}

type result = Unsat | Simplified of simplified

exception Root_conflict

(* The clause database is one flat arena. A clause is named by its
   handle [c], the arena offset of its two header words:

   - [arena.(c)] packs the length with two flags:
     [len lsl 2 lor touched lsl 1 lor dead];
   - [arena.(c + 1)] is a 64-bit Bloom-style signature of the literal
     set, bit [l mod 63] per literal.  C ⊆ D implies sig(C) ∧ ¬sig(D) = 0,
     so one AND refutes most non-subsuming candidate pairs before the
     O(|D|) stamped-membership walk;
   - the literals follow from [c + 2], sorted ascending without
     duplicates.  Removing one shifts the rest left, so the order is kept
     and the length only shrinks.

   Clause [i] of the input has handle [cref.(i)]; handles increase with
   the clause index, and a visit reads one contiguous block.

   The occurrence lists are compressed rows: literal [l]'s clauses are
   [occ.(occ_start.(l)) .. occ.(occ_start.(l + 1) - 1)], in decreasing
   clause order.  They are built once and never updated, so entries go
   stale when a literal is removed from its clause; every reader checks
   membership again.

   The touched flag is set whenever the clause's literals change and
   cleared when the clause is processed as a subsumer (see
   {!subsumption_pass}). *)
type state = {
  nvars : int;
  arena : int array;
  cref : int array;
  occ_start : int array;
  occ : int array;
  (* Per-literal truth value: [1] true, [-1] false, [0] unassigned. *)
  value : int array;
  mutable fixed : (Types.var * bool) list; (* newest first *)
  mutable pure : (Types.var * bool) list; (* newest first *)
  (* Root-level propagation queue: [queue.(qhead .. qtail - 1)]. *)
  mutable queue : int array;
  mutable qhead : int;
  mutable qtail : int;
  (* Per-literal stamps: [stamp.(l) = gen] marks l as a literal of the
     clause being deduplicated or processed as a subsumer; every use
     draws a fresh [gen], so stale stamps never need clearing. *)
  stamp : int array;
  mutable gen : int;
  (* Scratch space reused by every pass: the subsumption order, the pure
     pass's per-literal occurrence counts, and the probe trail (a probe
     assigns each variable at most once, so [nvars] slots suffice). *)
  order : int array;
  cnt : int array;
  trail : int array;
  st : stats;
  protect : Types.var -> bool;
}

let dead_bit = 1
let touched_bit = 2
let len s c = s.arena.(c) lsr 2
let is_dead s c = s.arena.(c) land dead_bit <> 0
let is_touched s c = s.arena.(c) land touched_bit <> 0
let sig_bit (l : Types.lit) = 1 lsl (l mod 63)

let compute_sig s c =
  let acc = ref 0 in
  for k = c + 2 to c + 1 + len s c do
    acc := !acc lor sig_bit s.arena.(k)
  done;
  !acc

let set_true s l =
  s.value.(l) <- 1;
  s.value.(Types.negate l) <- -1

let unassigned s v = s.value.(Types.pos v) = 0

(* Whether clause [c] holds literal [l]; the literals are sorted, so the
   walk stops at the first larger one. *)
let mem s c l =
  let k = ref (c + 2) and e = c + 2 + len s c in
  while !k < e && s.arena.(!k) < l do
    incr k
  done;
  !k < e && s.arena.(!k) = l

(* Drop literal [l], known to occur in live clause [c], keeping the
   order. *)
let remove_lit s c l =
  let e = c + 2 + len s c in
  let k = ref (c + 2) in
  while s.arena.(!k) <> l do
    incr k
  done;
  Array.blit s.arena (!k + 1) s.arena !k (e - !k - 1);
  s.arena.(c) <- ((len s c - 1) lsl 2) lor touched_bit;
  s.arena.(c + 1) <- compute_sig s c

(* The queue never wraps: each clause becomes a unit at most once and each
   variable fails a probe at most once, so it sees few pushes in all. *)
let push s l =
  if s.qtail = Array.length s.queue then begin
    let q = Array.make (2 * s.qtail) 0 in
    Array.blit s.queue 0 q 0 s.qtail;
    s.queue <- q
  end;
  s.queue.(s.qtail) <- l;
  s.qtail <- s.qtail + 1

(* A clause that lost a literal: empty is a root conflict, a unit feeds
   the propagation queue. *)
let shrunk s c =
  match len s c with
  | 0 -> raise Root_conflict
  | 1 -> push s s.arena.(c + 2)
  | _ -> ()

let kill s c =
  if not (is_dead s c) then begin
    s.arena.(c) <- s.arena.(c) lor dead_bit;
    s.st.removed_clauses <- s.st.removed_clauses + 1
  end

(* Kill every live clause in [l]'s occurrence row that still holds [l]. *)
let kill_holding s l =
  for k = s.occ_start.(l) to s.occ_start.(l + 1) - 1 do
    let c = s.occ.(k) in
    if (not (is_dead s c)) && mem s c l then kill s c
  done

(* Permanently assign an implied literal: satisfied clauses die, the
   opposite literal is removed from every clause it occurs in, and any
   clause thereby reduced to a unit feeds the propagation queue. *)
let assign_implied s l =
  match s.value.(l) with
  | 1 -> ()
  | -1 -> raise Root_conflict
  | _ ->
    set_true s l;
    s.fixed <- (Types.var_of l, Types.is_pos l) :: s.fixed;
    s.st.fixed_literals <- s.st.fixed_literals + 1;
    kill_holding s l;
    let nl = Types.negate l in
    for k = s.occ_start.(nl) to s.occ_start.(nl + 1) - 1 do
      let c = s.occ.(k) in
      if (not (is_dead s c)) && mem s c nl then begin
        remove_lit s c nl;
        shrunk s c
      end
    done

let propagate s =
  while s.qhead < s.qtail do
    let l = s.queue.(s.qhead) in
    s.qhead <- s.qhead + 1;
    assign_implied s l
  done

(* Sort a short slice in place; long ones go through [Array.sort]. *)
let sort_slice (a : int array) b n =
  if n <= 16 then
    for i = b + 1 to b + n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= b && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let sub = Array.sub a b n in
    Array.sort Int.compare sub;
    Array.blit sub 0 a b n
  end

let init ~nvars ~protect clause_list =
  let nvars = ref nvars and ncls = ref 0 and total = ref 0 in
  List.iter
    (fun c ->
      incr ncls;
      List.iter
        (fun l ->
          incr total;
          if Types.var_of l >= !nvars then nvars := Types.var_of l + 1)
        c)
    clause_list;
  let nvars = !nvars and ncls = !ncls and total = !total in
  let nlits = 2 * max 1 nvars in
  let s =
    {
      nvars;
      arena = Array.make (max 1 ((2 * ncls) + total)) 0;
      cref = Array.make ncls 0;
      occ_start = Array.make (nlits + 1) 0;
      occ = Array.make total 0;
      value = Array.make nlits 0;
      fixed = [];
      pure = [];
      queue = Array.make 64 0;
      qhead = 0;
      qtail = 0;
      stamp = Array.make nlits (-1);
      gen = 0;
      order = Array.make ncls 0;
      cnt = Array.make nlits 0;
      trail = Array.make (max 1 nvars) 0;
      st = mk_stats ();
      protect;
    }
  in
  (* Copy each clause into the arena once, dropping duplicate literals by
     stamp, then sort it; a tautology dies here, every other clause counts
     towards its literals' occurrence rows. *)
  let pos = ref 0 in
  List.iteri
    (fun ci lits ->
      let gen = s.gen in
      s.gen <- gen + 1;
      let c = !pos in
      s.cref.(ci) <- c;
      pos := c + 2;
      List.iter
        (fun l ->
          if s.stamp.(l) <> gen then begin
            s.stamp.(l) <- gen;
            s.arena.(!pos) <- l;
            incr pos
          end)
        lits;
      let n = !pos - c - 2 in
      sort_slice s.arena (c + 2) n;
      s.arena.(c) <- (n lsl 2) lor touched_bit;
      s.arena.(c + 1) <- compute_sig s c;
      let tautology = ref false in
      for k = c + 2 to !pos - 1 do
        if s.stamp.(Types.negate s.arena.(k)) = gen then tautology := true
      done;
      if !tautology then kill s c
      else begin
        for k = c + 2 to !pos - 1 do
          let l = s.arena.(k) in
          s.occ_start.(l) <- s.occ_start.(l) + 1
        done;
        shrunk s c
      end)
    clause_list;
  (* The prefix sums make [occ_start.(l)] the end of row [l]. Filling each
     row backwards in increasing clause order leaves [occ_start.(l)] at
     the row's start and the row in decreasing clause order. *)
  for l = 1 to nlits do
    s.occ_start.(l) <- s.occ_start.(l) + s.occ_start.(l - 1)
  done;
  Array.iter
    (fun c ->
      if not (is_dead s c) then
        for k = c + 2 to c + 1 + len s c do
          let l = s.arena.(k) in
          s.occ_start.(l) <- s.occ_start.(l) - 1;
          s.occ.(s.occ_start.(l)) <- c
        done)
    s.cref;
  s

(* Pure-literal elimination. A variable whose negation never occurs in an
   active clause can be set to its occurring polarity without losing
   satisfiability; variables with no occurrence at all are free. Only
   unprotected variables are eliminated (the caller protects variables
   whose models are counted or that carry arithmetic definitions). The
   counts are taken once per sweep, so they may overcount clauses killed
   earlier in the same sweep. *)
let pure_pass s =
  let cnt = s.cnt in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.fill cnt 0 (Array.length cnt) 0;
    Array.iter
      (fun c ->
        if not (is_dead s c) then
          for k = c + 2 to c + 1 + len s c do
            let l = s.arena.(k) in
            cnt.(l) <- cnt.(l) + 1
          done)
      s.cref;
    for v = 0 to s.nvars - 1 do
      if unassigned s v && not (s.protect v) then begin
        let cp = cnt.(Types.pos v) and cn = cnt.(Types.neg_of_var v) in
        if cp = 0 || cn = 0 then begin
          let value = cp > 0 in
          let l = if value then Types.pos v else Types.neg_of_var v in
          set_true s l;
          s.pure <- (v, value) :: s.pure;
          s.st.pure_literals <- s.st.pure_literals + 1;
          kill_holding s l;
          changed := true
        end
      end
    done
  done

(* Beyond these sizes the quadratic pair exploration stops paying for
   itself even with signatures; the pass is skipped outright (the other
   passes still run, and skipping a model-preserving transformation is
   always sound). *)
let subsumption_max_clauses = 50_000
let subsumption_max_lits = 500_000

let subsumption_oversized s =
  let clauses = ref 0 and lits = ref 0 in
  Array.iter
    (fun c ->
      if not (is_dead s c) then begin
        incr clauses;
        lits := !lits + len s c
      end)
    s.cref;
  !clauses > subsumption_max_clauses || !lits > subsumption_max_lits

(* How many literals of clause [d] carry the stamp [gen]: |C ∩ D| for
   the subsumer C being processed. *)
let count_stamped s gen d =
  let n = ref 0 in
  for k = d + 2 to d + 1 + len s d do
    if s.stamp.(s.arena.(k)) = gen then incr n
  done;
  !n

(* The clauses in increasing length, ties in index order: a stable
   counting sort on the current lengths. *)
let sort_by_length s =
  let maxlen = Array.fold_left (fun m c -> Int.max m (len s c)) 0 s.cref in
  let first = Array.make (maxlen + 2) 0 in
  Array.iter (fun c -> first.(len s c + 1) <- first.(len s c + 1) + 1) s.cref;
  for n = 1 to maxlen + 1 do
    first.(n) <- first.(n) + first.(n - 1)
  done;
  Array.iter
    (fun c ->
      s.order.(first.(len s c)) <- c;
      first.(len s c) <- first.(len s c) + 1)
    s.cref

(* Subsumption and self-subsuming resolution on subsumer C = clause [c]:
   kill every D ⊇ C reachable through C's rarest literal, and for each
   l ∈ C strengthen every D ⊇ (C \ {l}) ∪ {¬l} by dropping ¬l — the
   resolvent subsumes D.  Both transformations preserve the model set
   exactly.  C itself never changes here, since every candidate D ≠ C. *)
let process_subsumer s c =
  let gen = s.gen in
  s.gen <- gen + 1;
  let len_c = len s c and sig_c = s.arena.(c + 1) in
  for k = c + 2 to c + 1 + len_c do
    s.stamp.(s.arena.(k)) <- gen
  done;
  let row_len l = s.occ_start.(l + 1) - s.occ_start.(l) in
  let best = ref s.arena.(c + 2) in
  for k = c + 3 to c + 1 + len_c do
    if row_len s.arena.(k) < row_len !best then best := s.arena.(k)
  done;
  for k = s.occ_start.(!best) to s.occ_start.(!best + 1) - 1 do
    let d = s.occ.(k) in
    if
      d <> c
      && (not (is_dead s d))
      && sig_c land lnot s.arena.(d + 1) = 0
      && len s d >= len_c
      && count_stamped s gen d = len_c
    then kill s d
  done;
  for j = c + 2 to c + 1 + len_c do
    let l = s.arena.(j) in
    let nl = Types.negate l in
    for k = s.occ_start.(nl) to s.occ_start.(nl + 1) - 1 do
      let d = s.occ.(k) in
      if
        d <> c
        && (not (is_dead s d))
        (* C \ {l} ⊆ D is necessary for the resolvent to subsume D;
           bit l is forgiven since l itself need not occur in D. *)
        && sig_c land lnot (s.arena.(d + 1) lor sig_bit l) = 0
        && len s d >= len_c
        && mem s d nl
        && count_stamped s gen d = len_c - 1
      then begin
        remove_lit s d nl;
        s.st.strengthened_literals <- s.st.strengthened_literals + 1;
        shrunk s d
      end
    done
  done

(* One subsumption pass: every live clause, shortest first, acts as a
   subsumer — except clauses not touched since they last did.  Skipping
   those is exact, because clauses only shrink: if an untouched C is
   contained in D now, it was contained in D when C was last processed,
   so D was killed or strengthened then. *)
let subsumption_pass ~budget s =
  if not (subsumption_oversized s) then begin
    sort_by_length s;
    Array.iter
      (fun c ->
        Budget.tick budget;
        if (not (is_dead s c)) && len s c > 0 && is_touched s c then begin
          s.arena.(c) <- s.arena.(c) land lnot touched_bit;
          process_subsumer s c
        end)
      s.order;
    propagate s
  end

exception Probe_conflict

(* Scan literals [k .. e - 1] of a clause under the current (probe)
   assignment. The outcome is an immediate int: [-1] every literal is
   false, [-2] nothing to propagate (a literal is true, or two are
   unassigned), otherwise the sole unassigned literal. [acc] is the
   unassigned literal seen so far, or [-1]. *)
let rec probe_scan s k e acc =
  if k = e then acc
  else
    let x = s.arena.(k) in
    match s.value.(x) with
    | 1 -> -2
    | -1 -> probe_scan s (k + 1) e acc
    | _ -> if acc = -1 then probe_scan s (k + 1) e x else -2

(* Failed-literal probing: assume a literal, propagate without modifying
   the clause database; a conflict proves the negation at root level. The
   shared [visits] budget bounds total clause scans across all probes.
   The budget is polled only {e between} probes: a probe restores its
   trail before returning, and interrupting it mid-propagation would leave
   probe assumptions looking like root-level assignments. *)
let probe_pass ~probe_limit ~visits ~budget s =
  (* [s.trail] holds the literals a probe assumed, in order; it doubles
     as the probe's propagation queue, whose head is [qhead]. *)
  let trail = s.trail in
  let qhead = ref 0 and ntrail = ref 0 in
  let assume l =
    match s.value.(l) with
    | 1 -> ()
    | -1 -> raise Probe_conflict
    | _ ->
      set_true s l;
      trail.(!ntrail) <- l;
      incr ntrail
  in
  let probe l =
    qhead := 0;
    ntrail := 0;
    let ok =
      try
        assume l;
        while !qhead < !ntrail do
          let nl = Types.negate trail.(!qhead) in
          incr qhead;
          for k = s.occ_start.(nl) to s.occ_start.(nl + 1) - 1 do
            let c = s.occ.(k) in
            if not (is_dead s c) then begin
              decr visits;
              match probe_scan s (c + 2) (c + 2 + len s c) (-1) with
              | -1 -> raise Probe_conflict
              | -2 -> ()
              | u -> assume u
            end
          done
        done;
        true
      with Probe_conflict -> false
    in
    for i = 0 to !ntrail - 1 do
      s.value.(trail.(i)) <- 0;
      s.value.(Types.negate trail.(i)) <- 0
    done;
    ok
  in
  let v = ref 0 in
  while !v < s.nvars && s.st.probes < probe_limit && !visits > 0 do
    Budget.tick budget;
    if unassigned s !v then begin
      s.st.probes <- s.st.probes + 1;
      if not (probe (Types.pos !v)) then begin
        s.st.failed_literals <- s.st.failed_literals + 1;
        push s (Types.neg_of_var !v);
        propagate s
      end
      else if not (probe (Types.neg_of_var !v)) then begin
        s.st.failed_literals <- s.st.failed_literals + 1;
        push s (Types.pos !v);
        propagate s
      end
    end;
    incr v
  done

let clause_lits s c = List.init (len s c) (fun k -> s.arena.(c + 2 + k))

let simplify ?(probe_limit = 2000) ?(protect = fun _ -> false)
    ?(budget = Budget.unlimited) ~nvars clause_list =
  try
    let s = init ~nvars ~protect clause_list in
    propagate s;
    (* Budget exhaustion stops inprocessing early but soundly: every
       transformation already applied preserves the model set exactly, and
       clauses reduced to units but not yet propagated simply stay in the
       database as unit clauses.  The typed reason is sticky in the budget. *)
    (try
       Faults.hit "presolve.sat_simplify" budget;
       let visits = ref 300_000 in
       let rounds = ref 0 and continue_ = ref true in
       while !continue_ && !rounds < 3 do
         incr rounds;
         let progress st =
           st.fixed_literals + st.pure_literals + st.removed_clauses
           + st.strengthened_literals + st.failed_literals
         in
         let before = progress s.st in
         subsumption_pass ~budget s;
         probe_pass ~probe_limit ~visits ~budget s;
         pure_pass s;
         continue_ := progress s.st > before
       done
     with Budget.Exhausted _ -> ());
    let active =
      Array.fold_right
        (fun c acc -> if is_dead s c then acc else clause_lits s c :: acc)
        s.cref []
    in
    let units =
      List.rev_map
        (fun (v, b) -> [ (if b then Types.pos v else Types.neg_of_var v) ])
        s.fixed
    in
    Simplified
      {
        clauses = units @ active;
        fixed = List.rev s.fixed;
        pure = List.rev s.pure;
        stats = s.st;
      }
  with Root_conflict -> Unsat

let restore ~pure model =
  List.iter
    (fun (v, b) -> if v < Array.length model then model.(v) <- b)
    pure
