module I = Absolver_numeric.Interval
module Budget = Absolver_resource.Budget
module Faults = Absolver_resource.Faults

type outcome =
  | Sat of float array
  | Approx_sat of float array
  | Unsat
  | Unknown

type config = {
  eps : float;
  tol : float;
  max_nodes : int;
  use_hc4 : bool;
  samples_per_node : int;
  root_samples : int;
  seed : int;
}

let default_config =
  {
    eps = 1e-8;
    tol = 1e-7;
    max_nodes = 200_000;
    use_hc4 = true;
    samples_per_node = 4;
    root_samples = 512;
    seed = 0x5eed;
  }

type stats = {
  nodes : int;
  prunings : int;
  max_depth : int;
  revisions : int;
}

let empty_stats =
  { nodes = 0; prunings = 0; max_depth = 0; revisions = 0 }

let pp_outcome fmt = function
  | Sat p ->
    Format.fprintf fmt "sat (";
    Array.iteri (fun i x -> Format.fprintf fmt "%s%g" (if i > 0 then ", " else "") x) p;
    Format.fprintf fmt ")"
  | Approx_sat p ->
    Format.fprintf fmt "approx-sat (";
    Array.iteri (fun i x -> Format.fprintf fmt "%s%g" (if i > 0 then ", " else "") x) p;
    Format.fprintf fmt ")"
  | Unsat -> Format.pp_print_string fmt "unsat"
  | Unknown -> Format.pp_print_string fmt "unknown"

(* Random points inside a box, for IPOPT-style local feasibility search,
   drawn into [buf] (as long as the box). Infinite box dimensions are
   sampled from a clamped window. *)
let sample_point rng (b : Box.t) buf =
  for v = 0 to Array.length b - 1 do
    let iv = b.(v) in
    buf.(v) <-
      (if I.is_empty iv then 0.0
       else
         let lo = Float.max iv.I.lo (-1e6) and hi = Float.min iv.I.hi 1e6 in
         if lo >= hi then I.mid iv
         else lo +. Random.State.float rng (hi -. lo))
  done

(* What one search thread works with: the relations' tapes (shared), its
   own HC4 scratch and its own sample buffer. *)
type worker = { tapes : Hc4.t; scratch : Hc4.scratch; point : float array }

let worker tapes (box : Box.t) =
  { tapes; scratch = Hc4.scratch (); point = Array.make (Array.length box) 0.0 }

(* One node's contraction, in place: whether the box survived HC4, with
   the revise passes it cost. *)
let contract_node config ~budget w b =
  if config.use_hc4 then Hc4.contract ~budget ~scratch:w.scratch w.tapes b
  else (not (Box.is_empty b), 0)

(* The certificates and the tolerance check, on the worker's tapes. *)
let certified_box w b = Hc4.certified_box w.tapes w.scratch b
let certified_at w p = Hc4.certified_at w.tapes w.scratch p
let feasible_at config w p = Hc4.feasible_at ~tol:config.tol w.tapes w.scratch p

exception Done of outcome

(* Sequential search, the jobs <= 1 path.  This is the original code: one
   RNG seeded once, depth-first explicit stack, so [--jobs 1] reproduces
   historical witnesses exactly. *)
let solve_seq ?(config = default_config) ?(budget = Budget.unlimited) ~nvars
    ~box rels =
  let nodes = ref 0 and prunings = ref 0 and max_depth = ref 0 in
  let revisions = ref 0 in
  let candidate = ref None in
  let w = worker (Hc4.compile rels) box in
  let note_candidate p =
    if !candidate = None && feasible_at config w p then
      candidate := Some (Array.copy p)
  in
  let rng = Random.State.make [| config.seed |] in
  let stack = ref [ (Box.copy box, 0) ] in
  let outcome =
    try
      Faults.hit "nlp.branch_prune" budget;
      while !stack <> [] do
        let b, depth =
          match !stack with
          | x :: rest ->
            stack := rest;
            x
          | [] -> assert false
        in
        incr nodes;
        Budget.tick budget;
        if !nodes > config.max_nodes then
          raise
            (Done (match !candidate with Some p -> Approx_sat p | None -> Unknown));
        if depth > !max_depth then max_depth := depth;
        let alive, r = contract_node config ~budget w b in
        revisions := !revisions + r;
        if not alive then incr prunings
        else begin
          (* Whole-box certificate first, then midpoint certificate. *)
          let p = Box.midpoint b in
          if certified_box w b then raise (Done (Sat p));
          if certified_at w p then raise (Done (Sat p));
          note_candidate p;
          (* Local search: random samples within the contracted box; a
             rigorously certified sample ends the search, a tolerance
             sample is recorded as candidate. *)
          let n_samples =
            if depth = 0 then max config.root_samples config.samples_per_node
            else config.samples_per_node
          in
          let sp = w.point in
          for _ = 1 to n_samples do
            sample_point rng b sp;
            if certified_at w sp then raise (Done (Sat (Array.copy sp)));
            note_candidate sp
          done;
          if Box.max_width b > config.eps && nvars > 0 then begin
            let v = Box.widest_var b in
            match I.split (Box.get b v) with
            | exception Invalid_argument _ -> ()
            | left, right ->
              let b_left = Box.copy b and b_right = Box.copy b in
              Box.set b_left v left;
              Box.set b_right v right;
              stack := (b_left, depth + 1) :: (b_right, depth + 1) :: !stack
          end
        end
      done;
      match !candidate with Some p -> Approx_sat p | None -> Unsat
    with
    | Done o -> o
    | Budget.Exhausted _ ->
      (* Same degradation as the node cap: best tolerance-feasible point
         found so far, else unknown.  The typed reason stays sticky in the
         budget for the engine to report. *)
      (match !candidate with Some p -> Approx_sat p | None -> Unknown)
  in
  ( outcome,
    {
      nodes = !nodes;
      prunings = !prunings;
      max_depth = !max_depth;
      revisions = !revisions;
    } )

(* ------------------------------------------------------------------ *)
(* Parallel search (jobs > 1)                                          *)
(* ------------------------------------------------------------------ *)

module Pool = Absolver_parallel.Pool

(* Work items of the shared frontier.  [Explore] is one search node;
   [Sample] is a chunk of the root multistart sampling, split off so the
   sampling-heavy root (the dominant cost on e.g. car_steering) spreads
   over the workers instead of serializing on whoever pops the root box.

   Determinism of the search tree: every random draw comes from an RNG
   seeded by the item's {e path} — the bit-string of split decisions from
   the root (left = 2p, right = 2p+1, wrapping harmlessly past 62 bits) —
   never by worker identity or arrival order, so the set of boxes
   explored and points sampled is schedule-independent; only which
   certificate is found {e first} can vary, and any certificate is
   sound. *)
type par_item =
  | Explore of Box.t * int * int (* box, depth, path *)
  | Sample of Box.t * int * int (* box, count, chunk index *)

(* First-win terminal events: a rigorous certificate, or the shared node
   cap (which voids exhaustiveness exactly like the sequential cap). *)
type par_fin = Certificate of float array | Capped

let sample_chunk = 64

let solve_par ~(config : config) ~budget ~telemetry ~jobs ~nvars ~box rels =
  let nodes = Atomic.make 0
  and prunings = Atomic.make 0
  and max_depth = Atomic.make 0
  and revisions = Atomic.make 0 in
  let candidate = Atomic.make None in
  (* Tapes are built up front and then only read; each worker owns its
     scratch and sample buffer. *)
  let tapes = Hc4.compile rels in
  Hc4.build_all tapes;
  let workers = Array.init (max 1 jobs) (fun _ -> worker tapes box) in
  let note_candidate w p =
    if Atomic.get candidate = None && feasible_at config w p then
      (* First tolerance-feasible point wins; losing the CAS just means
         another worker already recorded one. *)
      ignore (Atomic.compare_and_set candidate None (Some (Array.copy p)))
  in
  let rec bump_max cell v =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then bump_max cell v
  in
  let work (ctx : (par_item, par_fin) Pool.Frontier.ctx) item =
    let w = workers.(ctx.worker) in
    match item with
    | Sample (b, count, chunk) ->
      Budget.tick ctx.budget;
      let rng = Random.State.make [| config.seed; chunk; 0x5a17 |] in
      let sp = w.point in
      for _ = 1 to count do
        sample_point rng b sp;
        if certified_at w sp then ctx.finish (Certificate (Array.copy sp))
        else note_candidate w sp
      done
    | Explore (b, depth, path) ->
      let n = Atomic.fetch_and_add nodes 1 + 1 in
      if n > config.max_nodes then ctx.finish Capped
      else begin
        Budget.tick ctx.budget;
        bump_max max_depth depth;
        let alive, r = contract_node config ~budget:ctx.budget w b in
        ignore (Atomic.fetch_and_add revisions r);
        if not alive then Atomic.incr prunings
        else begin
          let p = Box.midpoint b in
          if certified_box w b then ctx.finish (Certificate p)
          else if certified_at w p then ctx.finish (Certificate p)
          else begin
            note_candidate w p;
            (* Root multistart already ran as [Sample] chunks, so every
               depth gets the per-node allowance only. *)
            let n_samples = config.samples_per_node in
            let rng = Random.State.make [| config.seed; path |] in
            let stop = ref false in
            let sp = w.point in
            for _ = 1 to n_samples do
              if not !stop then begin
                sample_point rng b sp;
                if certified_at w sp then begin
                  ctx.finish (Certificate (Array.copy sp));
                  stop := true
                end
                else note_candidate w sp
              end
            done;
            if Box.max_width b > config.eps && nvars > 0 then begin
              let v = Box.widest_var b in
              match I.split (Box.get b v) with
              | exception Invalid_argument _ -> ()
              | left, right ->
                let b_left = Box.copy b and b_right = Box.copy b in
                Box.set b_left v left;
                Box.set b_right v right;
                ctx.push (Explore (b_left, depth + 1, (2 * path) land max_int));
                ctx.push
                  (Explore (b_right, depth + 1, ((2 * path) + 1) land max_int))
            end
          end
        end
      end
  in
  (* Root multistart sampling as independent chunks, then the root box. *)
  let init =
    let total = max config.root_samples config.samples_per_node in
    let rec chunks i off acc =
      if off >= total then List.rev acc
      else
        let c = min sample_chunk (total - off) in
        chunks (i + 1) (off + c) (Sample (Box.copy box, c, i) :: acc)
    in
    chunks 0 0 [ Explore (Box.copy box, 0, 1) ]
  in
  let outcome =
    match Pool.Frontier.run ~budget ~telemetry ~jobs ~init work with
    | Pool.Frontier.Finished (Certificate p) -> Sat p
    | Pool.Frontier.Finished Capped | Pool.Frontier.Stopped -> (
      (* Node cap or a tripped budget: same degradation as sequential. *)
      match Atomic.get candidate with Some p -> Approx_sat p | None -> Unknown)
    | Pool.Frontier.Drained -> (
      match Atomic.get candidate with Some p -> Approx_sat p | None -> Unsat)
  in
  ( outcome,
    {
      nodes = Atomic.get nodes;
      prunings = Atomic.get prunings;
      max_depth = Atomic.get max_depth;
      revisions = Atomic.get revisions;
    } )

let solve ?(config = default_config) ?(budget = Budget.unlimited)
    ?(telemetry = Absolver_telemetry.Telemetry.disabled) ?(jobs = 1) ~nvars
    ~box rels =
  let ((_, stats) as r) =
    if jobs <= 1 then solve_seq ~config ~budget ~nvars ~box rels
    else begin
      match
        Budget.guard budget (fun () -> Faults.hit "nlp.branch_prune" budget)
      with
      | Error _ -> (Unknown, empty_stats)
      | Ok () -> solve_par ~config ~budget ~telemetry ~jobs ~nvars ~box rels
    end
  in
  Absolver_telemetry.Telemetry.observe telemetry "nlp.bp_depth"
    (float_of_int stats.max_depth);
  r
