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

(* What the search works with: the relations' tapes, an HC4 scratch and
   a sample buffer. *)
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

(* The search: one RNG seeded once and a depth-first explicit stack, so a
   given config reproduces its witnesses exactly. *)
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

let solve ?(config = default_config) ?(budget = Budget.unlimited)
    ?(telemetry = Absolver_telemetry.Telemetry.disabled) ~nvars ~box rels =
  let ((_, stats) as r) = solve_seq ~config ~budget ~nvars ~box rels in
  Absolver_telemetry.Telemetry.observe telemetry "nlp.bp_depth"
    (float_of_int stats.max_depth);
  r
