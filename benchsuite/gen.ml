(* Seeded input generation for the four workloads. The solver only ever
   sees what these functions produce: texts in its input languages (or,
   for steering, the Simulink model), never a handle into the generator.

   Every seeded family is stratified: the seed draws constants,
   deadlines and puzzles, while the mix of instance kinds, sizes and
   sat/unsat answers, and the order, are the same for every seed. That
   keeps a run's medians comparable across seeds, which the benchmark's
   bounds rely on. *)

module A = Absolver_core
module F = Absolver_smtlib.Fischer
module Ast = Absolver_smtlib.Ast
module Q = Absolver_numeric.Rational
module S = Absolver_encodings.Sudoku
module P = Absolver_encodings.Puzzles

type verdict = Sat | Unsat

let verdict_name = function Sat -> "sat" | Unsat -> "unsat"

type input =
  | Dimacs of string  (** extended DIMACS *)
  | Smt1 of string  (** SMT-LIB 1.2 benchmark *)
  | Puzzle of string  (** 81 Sudoku cells; the front end is the mixed encoding *)
  | Steering_model  (** the Table 1 Simulink model; the front end converts it *)

type instance = {
  name : string;
  input : input;
  expect : verdict option;  (** known a priori from how it was built *)
  clues : S.puzzle option;  (** Sudoku instances: the clues an answer must keep *)
}

type request =
  | Solve of { inst : instance; models : int option }
      (** [models = Some limit] asks for model enumeration *)
  | Script of { name : string; script : string }  (** SMT-LIB 2 session *)

type size = Full | Tiny

let rng ~seed salt = Random.State.make [| seed; salt |]

let instance ?expect ?clues name input = { name; input; expect; clues }

(* ------------------------------------------------------------------ *)
(* Small nonlinear families with a verdict known in closed form. Each  *)
(* threshold is missed by a margin [m] of 10-40%, so interval search   *)
(* decides every instance.                                             *)

let dec f = Printf.sprintf "%.4f" f

let unit_problem ~defs ~bounds =
  String.concat "\n"
    ([ "p cnf 1 1"; "1 0" ]
    @ List.map (fun d -> "c def real 1 " ^ d) defs
    @ List.map (fun (v, b) -> Printf.sprintf "c bound %s %s %s" v (dec (-.b)) (dec b)) bounds)
  ^ "\n"

(* The ball sum x_i^2 <= r2 in k dimensions against the half-space
   sum x_i >= d; the ball reaches sqrt (k * r2) along the diagonal. *)
let ball_plane st ~k ~sat ~m =
  let r2 = float_of_string (dec (0.25 +. Random.State.float st 2.0)) in
  let reach = sqrt (float_of_int k *. r2) in
  let d = if sat then reach *. (1.0 -. m) else reach *. (1.0 +. m) in
  let xs = List.init k (fun i -> Printf.sprintf "x%d" i) in
  unit_problem
    ~defs:
      [
        String.concat " + " (List.map (fun x -> x ^ " * " ^ x) xs) ^ " <= " ^ dec r2;
        String.concat " + " xs ^ " >= " ^ dec d;
      ]
    ~bounds:(List.map (fun x -> (x, 2.0 *. sqrt r2 +. 1.0)) xs)

(* x^2 + y^2 <= a against x*y >= b; the product peaks at a/2. *)
let product_disk st ~sat ~m =
  let a = float_of_int (1 + Random.State.int st 8) in
  let b = if sat then a /. 2.0 *. (1.0 -. m) else a /. 2.0 *. (1.0 +. m) in
  unit_problem
    ~defs:[ "x * x + y * y <= " ^ dec a; "x * y >= " ^ dec b ]
    ~bounds:[ ("x", sqrt a +. 2.0); ("y", sqrt a +. 2.0) ]

(* p in [p1,p2], q in [q1,q2] with q1 > 0 against p / q >= c; the ratio
   peaks at p2 / q1. *)
let ratio_box st ~sat ~m =
  let p1 = float_of_int (1 + Random.State.int st 4) in
  let p2 = p1 +. float_of_int (1 + Random.State.int st 4) in
  let q1 = float_of_int (1 + Random.State.int st 3) in
  let q2 = q1 +. float_of_int (1 + Random.State.int st 4) in
  let top = p2 /. q1 in
  let c = if sat then top *. (1.0 -. m) else top *. (1.0 +. m) in
  unit_problem
    ~defs:
      [
        "p >= " ^ dec p1;
        "p <= " ^ dec p2;
        "q >= " ^ dec q1;
        "q <= " ^ dec q2;
        "p / q >= " ^ dec c;
      ]
    ~bounds:[ ("p", 100.0); ("q", 100.0) ]

(* The i-th small instance. The classes cycle with i, weighted so that
   the median solve falls inside one class (ball2 unsat) rather than on
   the edge between a cheap and a dear one; margins cycle too. The seed
   draws the remaining constants. *)
let classes =
  [|
    ("ball2", Sat); ("ball2", Unsat); ("ball3", Sat); ("ball3", Unsat); ("product", Sat);
    ("product", Unsat); ("ratio", Sat); ("ratio", Unsat); ("ball2", Unsat); ("ball3", Sat);
  |]

let small_nonlinear st i =
  let family, expect = classes.(i mod Array.length classes) in
  let sat = expect = Sat and m = 0.1 +. (0.075 *. float_of_int (i / Array.length classes mod 5)) in
  let text =
    match family with
    | "ball2" -> ball_plane st ~k:2 ~sat ~m
    | "ball3" -> ball_plane st ~k:3 ~sat ~m
    | "product" -> product_disk st ~sat ~m
    | _ -> ratio_box st ~sat ~m
  in
  instance ~expect (Printf.sprintf "%s_%s_%03d" family (verdict_name expect) i) (Dimacs text)

let table1_small =
  [
    instance ~expect:Sat "esat_n11_m8_nonlinear" (Dimacs Cases.esat);
    instance ~expect:Unsat "nonlinear_unsat" (Dimacs Cases.nonlinear_unsat);
    instance ~expect:Sat "div_operator" (Dimacs Cases.div_operator);
    instance ~expect:Unsat "sphere_cap_unsat" (Dimacs Cases.sphere_cap_unsat);
  ]

(* Table 1 plus seeded small cases. Steering dominates a pass; the small
   cases give the latency percentiles enough samples. *)
let nonlinear ~size ~seed =
  let st = rng ~seed 1 in
  let steering, small =
    match size with Full -> (true, 400) | Tiny -> (false, 8)
  in
  (if steering then [ instance ~expect:Sat "car_steering" Steering_model ] else [])
  @ table1_small
  @ List.init small (small_nonlinear st)

(* ------------------------------------------------------------------ *)
(* Fischer bounded model checking (Table 2).                           *)

let fischer_text ~n ~rounds ~deadline =
  Ast.to_string (F.benchmark ~rounds ~property:(F.Cs_within deadline) ~n ())

(* Process 1 needs 2 time units to reach its critical section, so a
   deadline above 2 is reachable (sat) and one at or below 2 is not.
   Deadlines are whole quarters: 9..20 for sat, 2..8 for unsat; [pick]
   chooses among them. *)
let fischer ~n ~rounds ~sat ~pick =
  let quarters = if sat then 9 + (pick mod 12) else 2 + (pick mod 7) in
  let deadline = Q.of_ints quarters 4 in
  instance
    ~expect:(if sat then Sat else Unsat)
    (Printf.sprintf "fischer%d_r%d_d%s" n rounds (Q.to_string deadline))
    (Smt1 (fischer_text ~n ~rounds ~deadline))

let bmc ~size ~seed =
  let st = rng ~seed 2 in
  let table, slots =
    match size with
    | Full -> (11, [ (3, 8); (5, 5); (7, 6); (9, 4); (11, 5) ])
    | Tiny -> (3, [ (2, 3) ])
  in
  let table2 =
    List.init table (fun i ->
        instance ~expect:Unsat
          (Printf.sprintf "FISCHER%d-1-fair" (i + 1))
          (Smt1 (fischer_text ~n:(i + 1) ~rounds:6 ~deadline:(Q.of_int 2))))
  in
  let seeded =
    List.concat_map
      (fun (n, rounds) ->
        List.map
          (fun sat -> fischer ~n ~rounds ~sat ~pick:(Random.State.int st 84))
          [ true; false ])
      slots
  in
  table2 @ seeded

(* ------------------------------------------------------------------ *)
(* Sudoku (Table 3).                                                   *)

let puzzle_instance name puzzle =
  instance ~expect:Sat ~clues:puzzle name (Puzzle (S.to_string puzzle))

(* Clue counts cycle through 24..46, hard to easy. *)
let generated_puzzle ~seed i =
  let name = Printf.sprintf "gen_s%d_%03d" seed i in
  (name, P.generate ~name ~clues:(24 + (i mod 23)))

let sudoku ~size ~seed =
  let table, extra = match size with Full -> (10, 92) | Tiny -> (2, 8) in
  List.filteri (fun i _ -> i < table) P.all
  @ List.init extra (generated_puzzle ~seed)
  |> List.map (fun (name, puzzle) -> puzzle_instance name puzzle)

(* ------------------------------------------------------------------ *)
(* The server's traffic mix.                                           *)

(* A self-contained SMT-LIB 2 session: it resets the connection's
   session first, so a replay on a fresh session answers the same. *)
let smt2_session st =
  let a () = 1 + Random.State.int st 5 in
  let r () = Random.State.int st 13 - 4 in
  let b = Buffer.create 256 in
  let add s = Buffer.add_string b s; Buffer.add_char b '\n' in
  add "(reset)";
  add "(set-logic QF_LRA)";
  add "(declare-const x Real)";
  add "(declare-const y Real)";
  add "(declare-const p Bool)";
  add (Printf.sprintf "(assert (or p (<= (+ (* %d x) (* %d y)) %d)))" (a ()) (a ()) (r ()));
  let depth = ref 0 in
  for _ = 1 to 4 + Random.State.int st 5 do
    match Random.State.int st 5 with
    | 0 ->
      add "(push 1)";
      incr depth
    | 1 when !depth > 0 ->
      add "(pop 1)";
      decr depth
    | 1 | 2 ->
      add
        (Printf.sprintf "(assert (<= (+ (* %d x) (* %d y)) %d))" (a ()) (a ()) (r ()))
    | 3 -> add (Printf.sprintf "(assert (or (not p) (>= x %d)))" (r ()))
    | _ -> add "(check-sat)"
  done;
  add "(check-sat)";
  Buffer.contents b

(* Each kind spread evenly over the mix in a fixed pattern (the j-th of
   n requests of a kind sits at (j + 1/2) / n), so the order in which
   big and small requests meet in the daemon does not depend on the
   seed. *)
let interleave kinds =
  List.concat_map
    (fun reqs ->
      let n = float_of_int (List.length reqs) in
      List.mapi (fun j r -> ((float_of_int j +. 0.5) /. n, r)) reqs)
    kinds
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  |> List.map snd

let server_mix ~size ~seed =
  let st = rng ~seed 3 in
  let scale = match size with Full -> 20 | Tiny -> 1 in
  (* Deadlines rotate with the seed over every size, so each seed sends
     the same sizes with the same spread of deadlines. *)
  let refutations =
    List.init (6 * scale) (fun i ->
        let n = 2 + (i mod 3) and rounds = 3 + (i / 3 mod 3) in
        Solve { inst = fischer ~n ~rounds ~sat:false ~pick:(i + seed); models = None })
  in
  let enumerations =
    List.init (3 * scale) (fun i ->
        let inst = fischer ~n:(1 + (i mod 3)) ~rounds:4 ~sat:true ~pick:(i + seed) in
        Solve { inst; models = Some 25 })
  in
  let sudokus =
    List.init (4 * scale) (fun i ->
        let name, puzzle = generated_puzzle ~seed (1000 + i) in
        let text = A.Dimacs_ext.to_string (S.absolver_problem puzzle) in
        Solve { inst = instance ~expect:Sat ~clues:puzzle name (Dimacs text); models = None })
  in
  let small =
    List.init (3 * scale) (fun i -> Solve { inst = small_nonlinear st i; models = None })
  in
  let sessions =
    List.init (4 * scale) (fun i ->
        Script { name = Printf.sprintf "session_%03d" i; script = smt2_session st })
  in
  interleave [ refutations; small; sudokus; sessions; enumerations ]

let request_name = function
  | Solve { inst; _ } -> inst.name
  | Script { name; _ } -> name
