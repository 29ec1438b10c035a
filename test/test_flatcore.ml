(* Flat-core differential tests (DESIGN.md Sec. 16): the small-value-
   inlined rational representation checked against a Bigint-backed
   reference implementation, overflow boundaries at the 62-bit edge,
   CSR tableau replay consistency, and CDCL's decision order pinned as
   digests of model enumerations. *)

module B = Absolver_numeric.Bigint
module Q = Absolver_numeric.Rational
module L = Absolver_lp.Linexpr
module S = Absolver_lp.Simplex
module T = Absolver_sat.Types
module AS = Absolver_sat.All_sat
module A = Absolver_core
module F = Absolver_smtlib.Fischer

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Bigint-backed reference rationals: every operation goes through      *)
(* arbitrary-precision arithmetic with explicit normalization, so a     *)
(* divergence can only come from the inlined small-int fast paths.      *)

type bigq = { bn : B.t; bd : B.t }

let bq_norm n d =
  let n, d = if B.sign d < 0 then (B.neg n, B.neg d) else (n, d) in
  if B.is_zero n then { bn = B.zero; bd = B.one }
  else
    let g = B.gcd n d in
    { bn = B.div n g; bd = B.div d g }

let bq_of_q q = { bn = Q.num q; bd = Q.den q }

let bq_add a b =
  bq_norm (B.add (B.mul a.bn b.bd) (B.mul b.bn a.bd)) (B.mul a.bd b.bd)

let bq_sub a b =
  bq_norm (B.sub (B.mul a.bn b.bd) (B.mul b.bn a.bd)) (B.mul a.bd b.bd)

let bq_mul a b = bq_norm (B.mul a.bn b.bn) (B.mul a.bd b.bd)
let bq_div a b = bq_norm (B.mul a.bn b.bd) (B.mul a.bd b.bn)

(* Denominators are positive after normalization. *)
let bq_compare a b = B.compare (B.mul a.bn b.bd) (B.mul b.bn a.bd)

let same label q bq =
  if not (B.equal (Q.num q) bq.bn && B.equal (Q.den q) bq.bd) then
    Alcotest.failf "%s: got %s, reference %s/%s" label (Q.to_string q)
      (B.to_string bq.bn) (B.to_string bq.bd)

(* ------------------------------------------------------------------ *)
(* Seeded generators spanning the interesting magnitudes: tiny values   *)
(* (the dominant case in the solver), values near the 62-bit overflow   *)
(* boundary, and genuinely big values that must take the Bigint path.   *)

let rand_component st =
  match Random.State.int st 8 with
  | 0 | 1 | 2 -> Random.State.int st 21 - 10
  | 3 -> Random.State.int st 2_000_001 - 1_000_000
  | 4 -> (1 lsl 31) + Random.State.int st 1000
  | 5 -> max_int - Random.State.int st 3 (* 2^62 - 1 and neighbours *)
  | 6 -> -(max_int - Random.State.int st 3)
  | _ -> (1 lsl 45) * (Random.State.int st 100 + 1)

let rand_q st =
  match Random.State.int st 5 with
  | 0 | 1 | 2 ->
    let n = rand_component st in
    let d = rand_component st in
    Q.of_ints n (if d = 0 then 1 else d)
  | 3 ->
    (* Guaranteed beyond 62 bits: exercises the Big constructor and the
       demotion logic on results that shrink back. *)
    let big = B.mul (B.of_int (rand_component st)) (B.of_int (1 lsl 40)) in
    let d = rand_component st in
    Q.make (B.add big B.one) (B.of_int (if d = 0 then 1 else d))
  | _ -> Q.of_int (rand_component st)

let test_small_rational_differential () =
  let st = Random.State.make [| 0x5eed; 9 |] in
  for i = 1 to 400 do
    let x = rand_q st and y = rand_q st in
    let bx = bq_of_q x and by = bq_of_q y in
    let tag op = Printf.sprintf "case %d %s (%s, %s)" i op (Q.to_string x) (Q.to_string y) in
    same (tag "add") (Q.add x y) (bq_add bx by);
    same (tag "sub") (Q.sub x y) (bq_sub bx by);
    same (tag "mul") (Q.mul x y) (bq_mul bx by);
    if not (Q.is_zero y) then same (tag "div") (Q.div x y) (bq_div bx by);
    check int_t (tag "compare") (bq_compare bx by) (Q.compare x y);
    check bool_t (tag "equal<->compare") (Q.compare x y = 0) (Q.equal x y)
  done

(* The representation is canonical: a value is stored small iff it fits,
   so structurally distinct construction routes to the same rational
   must produce structurally identical values. Polymorphic compare over
   containers of rationals (nlp expressions) relies on this. *)
let test_small_rational_canonical () =
  let st = Random.State.make [| 0xca40 |] in
  for _ = 1 to 200 do
    let x = rand_q st in
    let via_big = Q.make (Q.num x) (Q.den x) in
    check bool_t "structural equality across routes" true
      (Stdlib.compare x via_big = 0);
    let doubled = Q.div (Q.mul x (Q.of_int 2)) (Q.of_int 2) in
    check bool_t "structural equality after round-trip arithmetic" true
      (Stdlib.compare x doubled = 0)
  done

let test_overflow_boundary () =
  (* max_int is 2^62 - 1: the largest small component. One past it must
     fall back to the Bigint representation and stay exact. *)
  let top = Q.of_int max_int in
  let two62 = Q.add top Q.one in
  check string_t "2^62 exact" "4611686018427387904" (Q.to_string two62);
  check bool_t "demotes back under the edge" true
    (Stdlib.compare (Q.sub two62 Q.one) top = 0);
  (* Multiplication overflow: (2^31)^2 = 2^62 needs the fallback. *)
  let p = Q.mul (Q.of_int (1 lsl 31)) (Q.of_int (1 lsl 31)) in
  check string_t "2^31 * 2^31" "4611686018427387904" (Q.to_string p);
  check bool_t "product consistent with addition path" true (Q.equal p two62);
  (* Negative edge: min_int's magnitude is 2^62, one beyond the small
     range, and must not be used as a small component. *)
  let bottom = Q.of_int min_int in
  check string_t "min_int exact" (string_of_int min_int) (Q.to_string bottom);
  same "min_int + min_int"
    (Q.add bottom bottom)
    (bq_add (bq_of_q bottom) (bq_of_q bottom));
  same "min_int * min_int"
    (Q.mul bottom bottom)
    (bq_mul (bq_of_q bottom) (bq_of_q bottom));
  check int_t "compare across the edge" (-1) (Q.compare bottom top);
  (* Denominator overflow: 1/(2^62-1) + 1/(2^62-3) overflows the common
     denominator and must fall back, then stay exact. *)
  let a = Q.of_ints 1 max_int and b = Q.of_ints 1 (max_int - 2) in
  same "tiny sum overflow" (Q.add a b) (bq_add (bq_of_q a) (bq_of_q b));
  (* floor/ceil at the boundary. *)
  check string_t "floor of big" "4611686018427387903"
    (B.to_string (Q.floor (Q.sub two62 (Q.of_ints 1 2))));
  check string_t "ceil of big" "4611686018427387904"
    (B.to_string (Q.ceil (Q.sub two62 (Q.of_ints 1 2))))

let test_rounding_differential () =
  let st = Random.State.make [| 0xf100; 3 |] in
  for _ = 1 to 200 do
    let x = rand_q st in
    let f = Q.of_bigint (Q.floor x) and c = Q.of_bigint (Q.ceil x) in
    check bool_t "floor <= x" true (Q.leq f x);
    check bool_t "x <= ceil" true (Q.leq x c);
    check bool_t "x - floor < 1" true (Q.lt (Q.sub x f) Q.one);
    check bool_t "ceil - x < 1" true (Q.lt (Q.sub c x) Q.one);
    check bool_t "to_string round-trips" true
      (Q.equal x (Q.of_decimal_string (Q.to_string x)))
  done

(* ------------------------------------------------------------------ *)
(* CSR tableau: differential replay.                                    *)

let rand_cons st nvars tag =
  let nterms = 1 + Random.State.int st 3 in
  let terms =
    List.init nterms (fun _ ->
        (Q.of_int (Random.State.int st 11 - 5), Random.State.int st nvars))
  in
  let expr = L.of_list terms (Q.of_int (Random.State.int st 21 - 10)) in
  let op =
    match Random.State.int st 5 with
    | 0 -> L.Le
    | 1 -> L.Ge
    | 2 -> L.Lt
    | 3 -> L.Gt
    | _ -> L.Eq
  in
  { L.expr; op; tag }

let model_env model v =
  match List.assoc_opt v model with Some q -> q | None -> Q.zero

let holds_all cs model =
  List.for_all (fun c -> L.holds (model_env model) c) cs

(* One-shot verdicts agree with an incremental assert-then-check replay
   of the same constraints, and every Sat model exactly satisfies the
   system (checked in exact arithmetic, so a CSR corruption that still
   produces a "plausible" assignment is caught). *)
let test_csr_one_shot_vs_incremental () =
  let st = Random.State.make [| 0xc5a; 17 |] in
  let sat = ref 0 and unsat = ref 0 in
  for i = 1 to 120 do
    let nvars = 2 + Random.State.int st 4 in
    let ncons = 2 + Random.State.int st 8 in
    let cs = List.init ncons (fun t -> rand_cons st nvars t) in
    let one_shot = fst (S.solve_system cs) in
    let t = S.create () in
    S.ensure_vars t nvars;
    let rec assert_all = function
      | [] -> (
        match S.check t with
        | S.Feasible -> `Sat
        | S.Infeasible _ -> `Unsat)
      | c :: rest -> (
        if L.is_constant c.L.expr then
          if L.holds (fun _ -> Q.zero) c then assert_all rest else `Unsat
        else
          match S.assert_cons t c with
          | S.Feasible -> assert_all rest
          | S.Infeasible _ -> `Unsat)
    in
    let incremental = assert_all cs in
    (match (one_shot, incremental) with
    | S.Sat model, `Sat ->
      incr sat;
      if not (holds_all cs model) then
        Alcotest.failf "case %d: one-shot model violates the system" i
    | S.Unsat _, `Unsat -> incr unsat
    | S.Unknown _, _ -> Alcotest.failf "case %d: unexpected unknown" i
    | S.Sat _, `Unsat -> Alcotest.failf "case %d: one-shot sat, replay unsat" i
    | S.Unsat _, `Sat -> Alcotest.failf "case %d: one-shot unsat, replay sat" i)
  done;
  check bool_t "exercised both verdicts" true (!sat > 5 && !unsat > 5)

(* Checkpoint/rollback replay: re-asserting a popped frame must
   reproduce the same verdict even though the pivoted basis (and the
   occurrence index behind it) carries over between rounds. *)
let test_csr_warm_replay () =
  let st = Random.State.make [| 0xaa7; 2 |] in
  for _ = 1 to 40 do
    let nvars = 2 + Random.State.int st 4 in
    let base = List.init 4 (fun t -> rand_cons st nvars t) in
    let t = S.create () in
    S.ensure_vars t nvars;
    let base_ok =
      List.for_all
        (fun c ->
          L.is_constant c.L.expr
          || match S.assert_cons t c with S.Feasible -> true | S.Infeasible _ -> false)
        base
    in
    if base_ok && S.check t = S.Feasible then
      for round = 0 to 4 do
        let extra = List.init 3 (fun k -> rand_cons st nvars (100 + (round * 10) + k)) in
        let run () =
          S.push t;
          let v =
            let rec go = function
              | [] -> ( match S.check t with S.Feasible -> `Sat | S.Infeasible _ -> `Unsat)
              | c :: rest -> (
                if L.is_constant c.L.expr then go rest
                else
                  match S.assert_cons t c with
                  | S.Feasible -> go rest
                  | S.Infeasible _ -> `Unsat)
            in
            go extra
          in
          S.pop t;
          v
        in
        let v1 = run () in
        let v2 = run () in
        check bool_t "replay verdict stable" true (v1 = v2)
      done
  done

(* Pivoting with ~2^40-scale coefficients multiplies into > 2^62
   intermediate values: the tableau arithmetic must cross into the
   Bigint fallback and come back out exactly. *)
let test_csr_overflow_fallback () =
  let big = Q.of_int (1 lsl 40) in
  let cs =
    [
      { L.expr = L.of_list [ (big, 0); (Q.of_int 3, 1) ] (Q.neg (Q.of_int (1 lsl 30))); op = L.Ge; tag = 0 };
      { L.expr = L.of_list [ (Q.one, 0) ] (Q.neg (Q.of_ints 1 3)); op = L.Le; tag = 1 };
      { L.expr = L.of_list [ (big, 1); (Q.neg Q.one, 0) ] Q.zero; op = L.Le; tag = 2 };
      { L.expr = L.of_list [ (Q.one, 1) ] Q.zero; op = L.Ge; tag = 3 };
    ]
  in
  match fst (S.solve_system cs) with
  | S.Sat model ->
    check bool_t "big-coefficient model is exact" true (holds_all cs model)
  | S.Unsat _ -> Alcotest.fail "expected sat"
  | S.Unknown _ -> Alcotest.fail "unexpected unknown"

(* ------------------------------------------------------------------ *)
(* CDCL identity: every model enumeration, pinned.                      *)

(* Up to [limit] models of [clauses] with [strategy], as one digest: each
   model in the order found, and the decisions, propagations and
   conflicts of every search. A change to the variable CDCL decides next
   (the VSIDS heap's pop order or tie-breaking, the reinsertion order on
   backtrack, phase saving) changes the digest. *)
let enumeration_trace ?max_conflicts strategy ~limit solver =
  let t = AS.create ~phase:false strategy solver in
  let b = Buffer.create 4096 in
  let add_int n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ' '
  in
  let rec loop n =
    let outcome = AS.next ?max_conflicts t in
    let w = AS.work t in
    List.iter add_int [ w.T.decisions; w.T.propagations; w.T.conflicts ];
    match outcome with
    | T.Sat ->
      let m = AS.model t in
      Array.iter (fun x -> Buffer.add_char b (if x then '1' else '0')) m;
      Buffer.add_char b ';';
      if n + 1 < limit then begin
        AS.block t (AS.blocking ~projection:(List.init (Array.length m) Fun.id) m);
        loop (n + 1)
      end
    | T.Unsat -> Buffer.add_string b "unsat"
    | T.Unknown -> Buffer.add_string b "unknown"
  in
  loop 0;
  Buffer.contents b

(* Both strategies' traces of one CNF, as one digest. *)
let enumeration_digest ?max_conflicts ~limit ~num_vars clauses =
  let trace strategy =
    enumeration_trace ?max_conflicts strategy ~limit (AS.load ~num_vars clauses)
  in
  Digest.to_hex (Digest.string (trace AS.Incremental ^ "|" ^ trace AS.Restarting))

(* A random CNF around the 3-SAT threshold: 10..59 variables, 3.0..4.4
   clauses per variable, mostly ternary clauses with some binary ones.
   The corpus mixes unsatisfiable CNFs (136 of the 300) with ones that
   have a few models or more than the 40 enumerated. *)
let random_cnf rand =
  let nvars = 10 + rand 50 in
  let nclauses = nvars * (30 + rand 15) / 10 in
  let lit () =
    let v = rand nvars in
    if rand 2 = 0 then T.pos v else T.neg_of_var v
  in
  let clause () = List.init (if rand 10 = 0 then 2 else 3) (fun _ -> lit ()) in
  (nvars, List.init nclauses (fun _ -> clause ()))

let cdcl_identity_random () =
  let rand = Test_preprocess.lcg 19_830_207 in
  List.init 300 (fun _ ->
      let num_vars, clauses = random_cnf rand in
      String.sub (enumeration_digest ~limit:40 ~num_vars clauses) 0 8)

(* [n + 1] pigeons in [n] holes: unsatisfiable, and for [n = 8] hard
   enough that a search stopped after 8,000 conflicts has restarted
   several times and rescaled the variable activities (past about
   4,500 conflicts the bump increment exceeds 1e100). *)
let pigeonhole n =
  let var p h = (p * n) + h in
  let some_hole p = List.init n (fun h -> T.pos (var p h)) in
  let no_two h =
    List.concat
      (List.init (n + 1) (fun p ->
           List.init p (fun q -> [ T.neg_of_var (var p h); T.neg_of_var (var q h) ])))
  in
  ((n + 1) * n, List.init (n + 1) some_hole @ List.concat (List.init n no_two))

(* The CNF skeletons of Table 2 instances, and a pigeonhole CNF. *)
let cdcl_identity_named () =
  List.map
    (fun n ->
      match F.problem ~rounds:6 ~property:(F.Cs_within (Q.of_int 2)) ~n () with
      | Ok p ->
        ( Printf.sprintf "FISCHER%d" n,
          enumeration_digest ~limit:30 ~num_vars:(A.Ab_problem.num_bool_vars p)
            (A.Ab_problem.clauses p) )
      | Error e -> Alcotest.failf "fischer: %s" e)
    [ 2; 4; 6 ]
  @
  let num_vars, clauses = pigeonhole 8 in
  [ ("pigeonhole 9/8", enumeration_digest ~max_conflicts:8000 ~limit:1 ~num_vars clauses) ]

(* Digests of the enumerations above. They were produced by a VSIDS
   heap that swapped the moving variable level by level; the solver must
   reproduce them bit for bit until a change means to alter the decision
   order. Those of FISCHER2/4/6 and of 19 of the 52 random CNFs with a
   unit clause changed when the clauses began to be loaded in bulk: its
   root propagation is not counted as the first search's work, and the
   compaction after it leaves other watches than adding the clauses one
   by one did. Every CNF without a unit clause kept its digest. *)
let cdcl_identity_named_pins =
  [
    ("FISCHER2", "a341c3cff16268a8145edd14d9079198");
    ("FISCHER4", "8a8bee923c401607a59b070a75bb1580");
    ("FISCHER6", "26793caf87d6b2a4f01cad92bf7167f5");
    ("pigeonhole 9/8", "855d0809d36729cf33a4b5320e902268");
  ]

let cdcl_identity_random_pins =
  [|
    "9e279d29"; "243cc8e3"; "bd78a1ff"; "8da51327"; "f0928713"; "d65958a1";
    "a7bac49e"; "e5d0d68a"; "5f19adb8"; "cf95e3b7"; "db86a0e1"; "86cd1e36";
    "a8d291ec"; "26c57926"; "175b1216"; "4d982d13"; "ea647d5e"; "24b39915";
    "db1f29af"; "d1eaf940"; "f4872435"; "3db39b77"; "1df88b50"; "51efc73e";
    "9a696cfc"; "b5830c70"; "b8ecb71e"; "af371239"; "d869fa5b"; "f2262a8b";
    "05afe9ad"; "f78e5a71"; "d674136c"; "b711ab1c"; "240ba4f1"; "18e7b622";
    "9751a38e"; "cf95e3b7"; "91a70d00"; "e21db868"; "d9f79392"; "57512d29";
    "79a569e3"; "b253f228"; "0166e1af"; "80330787"; "a769ef6d"; "b1a87e83";
    "35c7d7f9"; "1ce8fdeb"; "804be18c"; "513ea549"; "71f0f84d"; "60afb693";
    "e6cd0d7d"; "b0ff62b2"; "6a3b0aef"; "34cf689e"; "d3186c8c"; "cf95e3b7";
    "994b5d95"; "49d55f52"; "2d770a1b"; "a64a7a70"; "658be2c9"; "9f655ee4";
    "764f80f6"; "d818f50c"; "b87a49f5"; "98ecf8cc"; "035dd688"; "5f2bb883";
    "192a2a26"; "8471bf32"; "52e97ff2"; "1e7c01a1"; "2137583b"; "7aa9dfb0";
    "bf4a329d"; "f9e7e9cb"; "7ddb7bb5"; "297d89de"; "ba55fc90"; "aee0d9d9";
    "fe24b658"; "70cb2667"; "101dec5e"; "05628f67"; "cefee723"; "87b1793e";
    "5e42be60"; "cda8429b"; "dda01360"; "63de1aa2"; "00b3cab7"; "2da14586";
    "793b1fd3"; "86851c8f"; "d64baea4"; "8fd676b5"; "ed31ee39"; "8dc37816";
    "402a01e0"; "a45d199b"; "7d430de0"; "81c8c496"; "07f0430b"; "eea9fcc5";
    "1c70eadd"; "7e41e3d6"; "a6facc47"; "b11d20ba"; "15f8ef0b"; "dda01360";
    "c2e1e59b"; "dd2b4f7d"; "6d311711"; "cddf7eaa"; "30da41e5"; "451803ae";
    "0c2fb539"; "56fcfc9d"; "b23dbb9b"; "63e6ae90"; "cdd8afb4"; "9c8603d4";
    "1dc90e66"; "0fb8d261"; "a58ff52b"; "9e833847"; "4a0c35d4"; "d68b9f1d";
    "1d1ec6e4"; "6bbf6915"; "cf95e3b7"; "fec23cfe"; "80589637"; "17c89faa";
    "36426e31"; "13036160"; "250421d1"; "aad7bee5"; "cf95e3b7"; "498c1c8a";
    "9998c458"; "3a06c122"; "90bbd81a"; "ed8e0ef8"; "d5b1d1d7"; "25891a5d";
    "bf642f4c"; "ff86e804"; "8a14f9a8"; "2dc35332"; "9f435c8c"; "6c380e1a";
    "68648084"; "85e5742e"; "b7e863d9"; "3068289e"; "026f98ca"; "9dcc830e";
    "2f71003d"; "caabb23f"; "5c894619"; "51ac0b40"; "841202ff"; "1656696d";
    "415495f1"; "0960f8f2"; "2905bdd4"; "fe2d900c"; "cf95e3b7"; "59d7b415";
    "a0b71746"; "290d1905"; "465ba7be"; "9cbe1c37"; "55006844"; "5d07f668";
    "34101ff5"; "6761697e"; "f4fe83c4"; "0d0fad9c"; "715d8e45"; "34a4e591";
    "9f9050a5"; "175580d1"; "e6f4e524"; "9997d9fc"; "aac5986d"; "0a67cdfe";
    "481b7618"; "5c37c9c9"; "111d10bd"; "27e1c269"; "45fef631"; "95a72cc8";
    "9c06af66"; "e3649e7a"; "fb38d2fb"; "e4f77ee9"; "a90630a2"; "b3dd1b66";
    "9f11a123"; "0be4a0ca"; "569dad0d"; "bf30e9be"; "31b72f33"; "93ab6033";
    "af780ef3"; "c658b928"; "bf23af0a"; "acf6997f"; "7af1649e"; "8dd7af60";
    "3f8a4164"; "3d0dcebf"; "b7e833b3"; "76ca83a7"; "c51b2fc7"; "dd2bb27f";
    "e889d51e"; "9d9a6755"; "67f921da"; "ff7261e2"; "22fc4ed6"; "5e71c9a6";
    "c7d5739e"; "173cabbe"; "63729c74"; "c3cfe531"; "76875622"; "4145cd99";
    "fd49201f"; "36036c7a"; "74075425"; "3749b8ad"; "aea07534"; "cd82ea95";
    "21961372"; "448635ab"; "cdb603e7"; "2004add1"; "290ec09c"; "56d4481c";
    "5e3f3d70"; "dcccfb01"; "5e4a6dc4"; "6a99bdff"; "343306eb"; "af4d39a0";
    "de36273e"; "cd0227df"; "073ba229"; "e354117d"; "61e38bc4"; "32837dc8";
    "5e7c7b18"; "5af30d74"; "5047c55b"; "1041fa96"; "43c5b0f2"; "13c652ab";
    "e8b46fa3"; "65a35b2f"; "5989c64e"; "03c2e5ad"; "6f38f735"; "3179ff89";
    "ecb2a52b"; "a9c0bf6e"; "67863107"; "89e9112a"; "e0cb814e"; "738f5cec";
    "39354f29"; "f046f06c"; "e8853256"; "c74909f3"; "4f1dc174"; "966d90da";
    "297d89de"; "438cc064"; "3dea05d0"; "bfb03e79"; "b02ac02e"; "6f737779";
    "06222ac1"; "9ffbf11e"; "331f55a8"; "1e393633"; "af696108"; "140597a2";
    "ec7ddf1b"; "98ef0cc7"; "ab39a9bb"; "b1627b25"; "dc555894"; "4fc52774";
  |]

let test_cdcl_identity_random () =
  List.iteri
    (fun i got ->
      check string_t
        (Printf.sprintf "random CNF %d: enumeration digest" i)
        cdcl_identity_random_pins.(i) got)
    (cdcl_identity_random ())

let test_cdcl_identity_named () =
  List.iter2
    (fun (name, pinned) (name', got) ->
      check string_t "input order" name name';
      check string_t (name ^ ": enumeration digest") pinned got)
    cdcl_identity_named_pins (cdcl_identity_named ())

(* ------------------------------------------------------------------ *)
(* The bulk load and probing.                                           *)

module Cdcl = Absolver_sat.Cdcl

let sorted_fixed s = List.sort compare (Cdcl.fixed s)

(* Every model of the solver's clauses, sorted: an enumeration blocking
   each model on all variables. *)
let all_models solver =
  let t = AS.create ~phase:false AS.Incremental solver in
  let rec loop acc =
    match AS.next t with
    | T.Sat ->
      let m = AS.model t in
      AS.block t (AS.blocking ~projection:(List.init (Array.length m) Fun.id) m);
      loop (m :: acc)
    | T.Unsat | T.Unknown -> List.sort compare acc
  in
  loop []

(* On random CNFs with units, duplicate literals, tautologies and empty
   clauses: the bulk load fixes the same literals as adding the clauses
   one by one, and after probing and the level-0 compaction the solver
   has the same models. *)
let bulk_load_matches_sequential =
  QCheck.Test.make ~name:"cdcl: bulk load and probing keep a sequential load's models"
    ~count:300 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let nvars, clauses =
        Test_preprocess.random_cnf (Test_preprocess.lcg seed) ~max_vars:10 ~empty_every:20
      in
      let bulk = Cdcl.create () and seq = Cdcl.create () in
      Cdcl.ensure_vars bulk nvars;
      Cdcl.ensure_vars seq nvars;
      Cdcl.load bulk clauses;
      List.iter (Cdcl.add_clause seq) clauses;
      Cdcl.is_unsat bulk = Cdcl.is_unsat seq
      && (Cdcl.is_unsat bulk
         || sorted_fixed bulk = sorted_fixed seq
            &&
            (ignore (Cdcl.probe bulk);
             Cdcl.compact bulk;
             all_models bulk = all_models seq)))

(* Up to 40 models of [solver], each blocked on every variable, and the
   solver's cumulative decisions, propagations and conflicts after each
   search, straight from CDCL: no enumeration handle resets the saved
   phases in between. *)
let solver_trace solver =
  let b = Buffer.create 1024 in
  let rec loop k =
    let outcome = Cdcl.solve solver in
    let st = Cdcl.stats solver in
    Buffer.add_string b
      (Printf.sprintf "%d %d %d;" st.T.decisions st.T.propagations st.T.conflicts);
    if outcome = T.Sat && k < 40 then begin
      let m = Cdcl.model solver in
      Array.iter (fun x -> Buffer.add_char b (if x then '1' else '0')) m;
      Cdcl.add_clause solver (AS.blocking ~projection:(List.init (Array.length m) Fun.id) m);
      loop (k + 1)
    end
  in
  loop 0;
  Buffer.contents b

(* A probe that fails no literal leaves no trace: after the compaction,
   the stats and every search of a probed solver equal those of one that
   was never probed, so probing touched no saved phase, activity or heap
   position. 300 random CNFs of 10..59 variables, 1.0..2.0 clauses per
   variable and a third of them binary, so that probes propagate; those
   where probing fixes nothing are compared, and probing must fix
   literals in some others. *)
let test_probe_leaves_no_trace () =
  let rand = Test_preprocess.lcg 19_830_207 in
  let compared = ref 0 and fixing = ref 0 in
  for i = 1 to 300 do
    let num_vars = 10 + rand 50 in
    let lit () = if rand 2 = 0 then T.pos (rand num_vars) else T.neg_of_var (rand num_vars) in
    let clauses =
      List.init
        (num_vars * (10 + rand 11) / 10)
        (fun _ -> if rand 3 = 0 then [ lit (); lit () ] else [ lit (); lit (); lit () ])
    in
    let loaded () = AS.load ~num_vars clauses in
    let probed = loaded () and plain = loaded () in
    let failed = Cdcl.probe probed in
    if failed > 0 then incr fixing
    else if not (Cdcl.is_unsat plain) then begin
      incr compared;
      Cdcl.compact probed;
      Cdcl.compact plain;
      check bool_t (Printf.sprintf "CNF %d: same stats" i) true
        (Cdcl.stats probed = Cdcl.stats plain);
      check string_t
        (Printf.sprintf "CNF %d: same searches" i)
        (solver_trace plain) (solver_trace probed)
    end
  done;
  check bool_t "probing fixed literals in some CNFs" true (!fixing > 10);
  check bool_t "most CNFs compared" true (!compared > 100)

let suite =
  [
    Alcotest.test_case "small-rational differential vs bigint reference" `Quick
      test_small_rational_differential;
    Alcotest.test_case "small-rational canonical representation" `Quick
      test_small_rational_canonical;
    Alcotest.test_case "overflow boundaries at +-2^62" `Quick
      test_overflow_boundary;
    Alcotest.test_case "rounding and string round-trips" `Quick
      test_rounding_differential;
    Alcotest.test_case "csr one-shot vs incremental replay" `Quick
      test_csr_one_shot_vs_incremental;
    Alcotest.test_case "csr warm checkpoint replay" `Quick
      test_csr_warm_replay;
    Alcotest.test_case "csr overflow fallback in pivoting" `Quick
      test_csr_overflow_fallback;
    Alcotest.test_case "cdcl: identity on random CNFs" `Quick
      test_cdcl_identity_random;
    Alcotest.test_case "cdcl: identity on Fischer and pigeonhole CNFs" `Quick
      test_cdcl_identity_named;
    QCheck_alcotest.to_alcotest ~long:false bulk_load_matches_sequential;
    Alcotest.test_case "cdcl: a probe leaves phases, heap and stats alone" `Quick
      test_probe_leaves_no_trace;
  ]
