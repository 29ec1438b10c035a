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

(* One strategy's trace of one CNF, as a digest. *)
let enumeration_digest ?max_conflicts strategy ~limit ~num_vars clauses =
  Digest.to_hex
    (Digest.string
       (enumeration_trace ?max_conflicts strategy ~limit (AS.load ~num_vars clauses)))

(* The [Incremental] and the [Restarting] digest of one CNF. *)
let digests ?max_conflicts ~limit ~num_vars clauses =
  let d strategy = enumeration_digest ?max_conflicts strategy ~limit ~num_vars clauses in
  (d AS.Incremental, d AS.Restarting)

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
      let inc, rest = digests ~limit:40 ~num_vars clauses in
      (String.sub inc 0 8, String.sub rest 0 8))

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
          digests ~limit:30 ~num_vars:(A.Ab_problem.num_bool_vars p)
            (A.Ab_problem.clauses p) )
      | Error e -> Alcotest.failf "fischer: %s" e)
    [ 2; 4; 6 ]
  @
  let num_vars, clauses = pigeonhole 8 in
  [ ("pigeonhole 9/8", digests ~max_conflicts:8000 ~limit:1 ~num_vars clauses) ]

(* Digests of the enumerations above, one per strategy. They were
   produced by a VSIDS heap that swapped the moving variable level by
   level; the solver must reproduce them bit for bit until a change
   means to alter the decision order. Those of FISCHER2/4/6 and of 19 of
   the 52 random CNFs with a unit clause changed when the clauses began
   to be loaded in bulk: its root propagation is not counted as the
   first search's work, and the compaction after it leaves other watches
   than adding the clauses one by one did. The [Incremental] digests of
   FISCHER4/6 and of 100 random CNFs changed again with trail reuse: a
   block keeps the levels a restart would rebuild, so their searches
   count fewer decisions and propagations, and the kept trail and the
   new clause's watches can change the models' order. Every
   [Restarting] digest stayed as it was. *)
let cdcl_identity_named_pins =
  [
    ("FISCHER2", "b6a1dacc630f7e2b4da6ff08851486a6", "f6b0fa6bde34211625b701b7cbe438b6");
    ("FISCHER4", "31df3c21ca717e7b83d9b753a21127f7", "e2461ea6dcdbee4cca71e7118ed17ea2");
    ("FISCHER6", "d6e0c10b6c09ba18db286404b7b040ad", "4e952448ace4a940055404382f1341df");
    ("pigeonhole 9/8", "aa8740a547ad5e9e2882d71f95df7a65", "aa8740a547ad5e9e2882d71f95df7a65");
  ]

let cdcl_identity_incremental_pins =
  [|
    "9567d79b"; "25787462"; "5c54d57d"; "28fb4560"; "742e65d7"; "3caf5024";
    "ae001c92"; "5300a887"; "1e357ed9"; "794d6c83"; "002409bc"; "b9de56c4";
    "3d702be4"; "5826be22"; "abdc726d"; "9a637476"; "6c12d84f"; "da3c611a";
    "dbbbc637"; "15c588b1"; "f3efbb4a"; "a0ddd80d"; "9c284ef2"; "5839d47f";
    "cacb00d6"; "22dcee32"; "10cdef17"; "a6b04a38"; "5d57c498"; "84aa345f";
    "cdff7d2a"; "966aceaa"; "33c7016f"; "93fb6397"; "db60102f"; "76b48f8e";
    "f8757ded"; "794d6c83"; "b8f05823"; "50eef297"; "53860df0"; "0a057cd1";
    "d640b867"; "619c5772"; "2a11152e"; "dda29217"; "c40ee7f6"; "97705033";
    "f2db4a03"; "1587d0ef"; "7bc36ce3"; "fec643b7"; "741b7609"; "b4599d87";
    "855ec848"; "5e905534"; "7c47078c"; "4864c4e4"; "388b547a"; "794d6c83";
    "bbd7947d"; "998682fe"; "b2715a45"; "ec15abdb"; "07752921"; "31d87874";
    "7d721e35"; "b6b49a44"; "ffec402f"; "68e7e1a6"; "63a7e9dc"; "5f0823a4";
    "4a6f9057"; "845cca2a"; "19b3fd60"; "45fb5efb"; "6cf731a1"; "8cf396cc";
    "ba5f2ca4"; "890911e5"; "30e1e039"; "987c9398"; "c7eac006"; "a5a4e7dc";
    "8b35c17d"; "9266ef36"; "b0172fc0"; "de9f15fb"; "538cb086"; "123ef6c5";
    "c3d2e2b1"; "5e70ae67"; "3ed70c6f"; "d02aeecc"; "5cd3fdb6"; "11122367";
    "8594baf0"; "0687105a"; "998aa8ca"; "d2a39b16"; "36e3452a"; "633c3c46";
    "ac2d571c"; "80c06954"; "45a9535b"; "64b5dded"; "13ef50aa"; "49670e39";
    "86f101ea"; "52e6657f"; "fba9916a"; "4dd39f67"; "71b641fe"; "3ed70c6f";
    "64062b28"; "b9ee10f6"; "42274b28"; "e1ad5c17"; "375debdd"; "c26a2013";
    "8a715965"; "d92c3cd5"; "a1fa59b0"; "9692be02"; "b6c6b3a4"; "eb1dd244";
    "6ddb9515"; "c3b7c3cd"; "9601db28"; "681351a8"; "48f0d1d4"; "5e8b2ecb";
    "780961cb"; "159402f2"; "794d6c83"; "0b82e972"; "fd912d4a"; "cc01170f";
    "7210287a"; "8fd7100d"; "3c6acbb4"; "41669b89"; "794d6c83"; "37d76510";
    "61499acf"; "19a8e9d9"; "6c741d42"; "1b1e2dfc"; "0ab863e2"; "34c63902";
    "782784f3"; "ea6045ea"; "d33516a6"; "f0347a4b"; "062be407"; "bd47feda";
    "5d255b12"; "6a0e12a0"; "4fa1906e"; "0233d19f"; "0d0090cd"; "353cb28b";
    "e574d2c4"; "01549fce"; "26533bcf"; "0bf4ebdf"; "cc793ecf"; "42d773ff";
    "a09de6ba"; "4a324a18"; "f6f03bb9"; "43128173"; "794d6c83"; "e5fd8ebc";
    "196cc9f7"; "4b38d96f"; "2b36de58"; "2ba5b3bf"; "436490d8"; "9d45ff43";
    "6acbe700"; "8907a4eb"; "5e3b057b"; "528b77c1"; "d1b58cce"; "72f6aefa";
    "847e5bf0"; "725dafa5"; "2a9df74b"; "c00cdc92"; "76642f42"; "1ed88979";
    "0ebad92c"; "8a0f6a0b"; "6a5d0087"; "fa8e2849"; "adcca712"; "85a5ce9c";
    "a376ba7d"; "ab1de11f"; "5026652c"; "44baa307"; "183d28e0"; "e111dda6";
    "6f977ab4"; "9ec21394"; "8500bb93"; "5ec7c9cf"; "8191472f"; "b9a6db73";
    "27d1b503"; "5c7c53b0"; "10351fee"; "250e6213"; "1597809b"; "ec1453fe";
    "b01ab571"; "1041fe9f"; "5257107e"; "1451cd56"; "6aca2ab6"; "8a3d5b19";
    "47343a2b"; "6bfe1663"; "ac24843d"; "de1297f8"; "16485c48"; "a03b6a23";
    "a7964804"; "4b134474"; "8f22c3de"; "75a35bae"; "870dc121"; "dd1f16d8";
    "7cc487ac"; "10143762"; "9828f2b5"; "b75b1abe"; "4edd34b3"; "59710b25";
    "f419bee9"; "ac08b74c"; "25b891b6"; "11853da9"; "2aff15a1"; "2fec396b";
    "2e8e8b1d"; "42a1ca81"; "4ce60b2b"; "51bd67bb"; "3e1ad49f"; "726e0be2";
    "76c2bdc5"; "7e99fa34"; "acec247a"; "779470e4"; "8462196b"; "b4e3a542";
    "9c54d01f"; "95f15eec"; "96cc44d8"; "330c7abd"; "33c1f49e"; "6050982f";
    "acfd70f2"; "d345f660"; "96bdeb38"; "fe7bc4ca"; "5ed300d4"; "7e05bc1f";
    "763db5d2"; "c1151ec3"; "c3a77e9b"; "8b189172"; "db51f7a5"; "4bbb97d2";
    "5e645fcd"; "c91eee11"; "e8a42035"; "7240a80b"; "37f67674"; "145a99f8";
    "987c9398"; "9e5caf3d"; "854847f2"; "e459dac0"; "a999f8b0"; "52d568e6";
    "32e0e19c"; "9ee1d883"; "c1137022"; "bdf67ce2"; "d24f6d26"; "31dfefa3";
    "25158b96"; "634c64b0"; "6945a47d"; "2205e826"; "4afbb65b"; "bb2a5446";
  |]

let cdcl_identity_restarting_pins =
  [|
    "9567d79b"; "25787462"; "5c54d57d"; "68d0de83"; "31dd1f1a"; "334261ef";
    "cec32b8b"; "cb7f8b63"; "1e357ed9"; "794d6c83"; "fb15fe52"; "ad2e19ff";
    "3d702be4"; "07c71637"; "abdc726d"; "9986fadd"; "e3769f34"; "6e890f8f";
    "499567c4"; "f0788622"; "7da5ed7f"; "d556df1c"; "9c284ef2"; "0936b9a4";
    "ee5c4d5c"; "22dcee32"; "7fc29364"; "ffc447ec"; "f59b536d"; "5dd11be8";
    "cdff7d2a"; "08248cc3"; "33c7016f"; "93fb6397"; "ede76dda"; "bfadcce3";
    "df5744b5"; "794d6c83"; "43b527d3"; "389e849a"; "942b5177"; "cb93fe69";
    "d640b867"; "619c5772"; "44f87b7b"; "6bb28db2"; "674539e2"; "97705033";
    "ef392f5e"; "ed4df52f"; "8ee8855b"; "fec643b7"; "65b9dfb1"; "c0315ee3";
    "e591cd21"; "5e905534"; "0953bf2f"; "11553868"; "eb95bf09"; "794d6c83";
    "bbd7947d"; "998682fe"; "b2715a45"; "ec15abdb"; "07752921"; "31d87874";
    "4a86ffb9"; "2699fc70"; "ebb920f8"; "68e7e1a6"; "052c0e7e"; "5f0823a4";
    "b80eeb07"; "a9573971"; "ca6be19a"; "9bcb2757"; "f16ebb62"; "a945bbe3";
    "b689dca0"; "366238fb"; "30e1e039"; "987c9398"; "c7eac006"; "710797aa";
    "8b35c17d"; "9266ef36"; "b0172fc0"; "085983d4"; "db3bd0c2"; "970678ea";
    "c3d2e2b1"; "6fb95ffd"; "3ed70c6f"; "d02aeecc"; "6088310b"; "1b0090cb";
    "3b3da990"; "4d3a9286"; "daa7b7d6"; "5c655216"; "36e3452a"; "633c3c46";
    "ac2d571c"; "80c06954"; "45a9535b"; "64b5dded"; "13ef50aa"; "49670e39";
    "a1ce573a"; "52e6657f"; "fba9916a"; "4dd39f67"; "4568da69"; "3ed70c6f";
    "0eea674c"; "175e0114"; "bcda0138"; "1951a0eb"; "375debdd"; "693a0ef4";
    "8a715965"; "de0eefa6"; "9cdb380d"; "b9c4bc8d"; "b6c6b3a4"; "0c82011f";
    "1cb7fb24"; "c3b7c3cd"; "9601db28"; "681351a8"; "3b42358f"; "5e8b2ecb";
    "33786fcc"; "159402f2"; "794d6c83"; "0b82e972"; "fd912d4a"; "58af1fe9";
    "7210287a"; "12a9b2d5"; "2a7c58b6"; "41669b89"; "794d6c83"; "08051674";
    "61499acf"; "19a8e9d9"; "67991c24"; "1b1e2dfc"; "445a66bc"; "50a2cdfe";
    "782784f3"; "ea6045ea"; "14a17e40"; "f0347a4b"; "062be407"; "b4e624b1";
    "f926bf87"; "cd0dd708"; "33fdaebf"; "0233d19f"; "0d0090cd"; "5d170518";
    "e574d2c4"; "01549fce"; "26533bcf"; "0bf4ebdf"; "5c9b20b5"; "5cac7aaa";
    "a09de6ba"; "2aa56bf4"; "95d49925"; "43128173"; "794d6c83"; "e5fd8ebc";
    "4fe3baa5"; "2a8bffd2"; "2b36de58"; "2ba5b3bf"; "436490d8"; "ea849f2c";
    "d3a18932"; "8907a4eb"; "315ddf25"; "268d74ab"; "14208590"; "72f6aefa";
    "636d6054"; "e612e485"; "2a9df74b"; "4e7bef26"; "816950ce"; "1ed88979";
    "0ebad92c"; "c685dce8"; "6a5d0087"; "fa8e2849"; "b2dd1638"; "85a5ce9c";
    "a8ad6b1f"; "ab1de11f"; "5026652c"; "8f91973c"; "2c089310"; "24b24655";
    "1c144d4a"; "d60c2039"; "8500bb93"; "5ec7c9cf"; "85a929a1"; "832c2268";
    "27d1b503"; "5c7c53b0"; "10351fee"; "35f0ee51"; "1597809b"; "ec1453fe";
    "a25c4d7b"; "1041fe9f"; "7bf112f9"; "c3cd0f02"; "eae3fbc7"; "9dd2e14e";
    "47343a2b"; "e568c89a"; "eee0dccf"; "3e7d119e"; "16485c48"; "4c39922f";
    "18f58098"; "7d13ce02"; "8f22c3de"; "b6354515"; "870dc121"; "dd1f16d8";
    "a8f26741"; "10143762"; "14ac1fd1"; "8ac4fd6d"; "bb709c38"; "59710b25";
    "f419bee9"; "ac08b74c"; "25b891b6"; "11853da9"; "05bfd4f5"; "2fec396b";
    "2e8e8b1d"; "268a7ede"; "4ce60b2b"; "51bd67bb"; "3e1ad49f"; "726e0be2";
    "2be60bb5"; "7e99fa34"; "60fe0095"; "72693efe"; "8462196b"; "2bf33fbb";
    "9c54d01f"; "95f15eec"; "b5797fea"; "330c7abd"; "02c2ef0f"; "c971db76";
    "acfd70f2"; "556e4095"; "3b131793"; "fe7bc4ca"; "ec38d6d1"; "7e05bc1f";
    "55aeaf2d"; "c1151ec3"; "79acbf0f"; "48c50b9a"; "8230c83f"; "126758ef";
    "3426fd16"; "1f0a6c1f"; "8ec9a55c"; "0891be6e"; "768290b2"; "145a99f8";
    "987c9398"; "f9f05f92"; "d4a8a325"; "e459dac0"; "d6d828d5"; "331e7f31";
    "74dd4923"; "a3f96a42"; "37c64506"; "bdf67ce2"; "d24f6d26"; "31dfefa3";
    "a9a65036"; "634c64b0"; "cf98d452"; "2205e826"; "4afbb65b"; "bb2a5446";
  |]

let test_cdcl_identity_random () =
  List.iteri
    (fun i (inc, rest) ->
      check string_t
        (Printf.sprintf "random CNF %d: Incremental digest" i)
        cdcl_identity_incremental_pins.(i) inc;
      check string_t
        (Printf.sprintf "random CNF %d: Restarting digest" i)
        cdcl_identity_restarting_pins.(i) rest)
    (cdcl_identity_random ())

let test_cdcl_identity_named () =
  List.iter2
    (fun (name, inc, rest) (name', (inc', rest')) ->
      check string_t "input order" name name';
      check string_t (name ^ ": Incremental digest") inc inc';
      check string_t (name ^ ": Restarting digest") rest rest')
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
      let m = Array.copy (AS.model t) in
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

(* ------------------------------------------------------------------ *)
(* Trail reuse.                                                          *)

let lit_true (m : bool array) l = m.(l lsr 1) = (l land 1 = 0)
let satisfies m clause = List.exists (lit_true m) clause

(* The models of [clauses] over [nvars] variables, projected on
   [projection], sorted, each once. *)
let brute_force nvars clauses projection =
  let acc = ref [] in
  for bits = 0 to (1 lsl nvars) - 1 do
    let m = Array.init nvars (fun v -> bits land (1 lsl v) <> 0) in
    if List.for_all (satisfies m) clauses then
      acc := List.map (fun v -> m.(v)) projection :: !acc
  done;
  List.sort_uniq compare !acc

(* A random CNF over 3..12 variables with 0.5..2.5 clauses per variable
   of two or three literals, and a unit clause in one CNF of three. Few
   searches conflict, so most variables keep activity 0 and the heap
   orders them by position alone. *)
let tied_cnf rand =
  let nvars = 3 + rand 10 in
  let lit () = if rand 2 = 0 then T.pos (rand nvars) else T.neg_of_var (rand nvars) in
  let clauses =
    List.init (nvars * (5 + rand 21) / 10) (fun _ -> List.init (2 + rand 2) (fun _ -> lit ()))
  in
  (nvars, if rand 3 = 0 then [ lit () ] :: clauses else clauses)

(* An [Incremental] enumeration blocking each model on a random
   projection: every model satisfies the CNF and every clause blocked
   before it, and the projected models are exactly the brute-force
   ones, each found once. *)
let block_keeps_models =
  QCheck.Test.make ~name:"cdcl: trail reuse finds every model once" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rand = Test_preprocess.lcg seed in
      let nvars, clauses = tied_cnf rand in
      let projection = List.filter (fun _ -> rand 4 > 0) (List.init nvars Fun.id) in
      let t =
        AS.create ~phase:(rand 2 = 0) AS.Incremental (AS.load ~num_vars:nvars clauses)
      in
      let rec loop blocked found =
        match AS.next t with
        | T.Sat ->
          let m = AS.model t in
          if not (List.for_all (satisfies m) clauses && List.for_all (satisfies m) blocked)
          then QCheck.Test.fail_report "a model falsifies a clause"
          else
            let found = List.map (fun v -> m.(v)) projection :: found in
            let clause = AS.blocking ~projection m in
            if clause = [] then found
            else begin
              AS.block t clause;
              loop (clause :: blocked) found
            end
        | T.Unsat -> found
        | T.Unknown -> QCheck.Test.fail_report "unknown"
      in
      List.sort compare (loop [] []) = brute_force nvars clauses projection)

(* The solver of a fresh load of [clauses] at its [k + 1]th model, after
   [k] models each blocked on every variable with trail reuse; [None]
   when there are fewer models. *)
let at_model ~num_vars clauses k =
  let s = AS.load ~num_vars clauses in
  let rec go i =
    if Cdcl.solve s <> T.Sat then None
    else if i = k then Some s
    else begin
      let m = Cdcl.model s in
      Cdcl.add_blocking_clause s (AS.blocking ~projection:(List.init (Array.length m) Fun.id) m);
      go (i + 1)
    end
  in
  go 0

(* Add [clause] with [add], search once, and return the outcome, the
   model, and the search's decisions, propagations and conflicts. *)
let search_after add s clause =
  let st = Cdcl.stats s in
  let d = st.T.decisions and p = st.T.propagations and c = st.T.conflicts in
  add s clause;
  let out = Cdcl.solve s in
  let st = Cdcl.stats s in
  (out, Cdcl.model s, st.T.decisions - d, st.T.propagations - p, st.T.conflicts - c)

(* The negations of the model's literals on [vars]. *)
let negation s vars =
  let m = Cdcl.model s in
  List.map (fun v -> if m.(v) then T.neg_of_var v else T.pos v) vars

(* A clause blocked after a model keeps only what a restart would
   rebuild. On 300 CNFs, half with many activity ties and half around
   the 3-SAT threshold (whose conflicts order the heap, so that blocks
   keep levels), at each of their first eight models, three clauses the model falsifies are added both with
   trail reuse and at level 0 ({!Cdcl.add_clause}) to two copies of the
   solver: the whole model's negation, the negations of two variables
   of the top decision level, and the negation of one variable above
   level 0 together with every root literal. Both copies answer alike,
   and a model after reuse satisfies the clause. Where the level-0 copy
   searches without a conflict, reuse finds the same model with no more
   decisions or propagations. The last clause has only one literal above
   level 0, so reuse must leave exactly the state {!Cdcl.add_clause}
   leaves, as a clause added at level 0, before any search, must. *)
let test_trail_reuse_edges () =
  let rand = Test_preprocess.lcg 20_110_302 in
  let kept = ref 0 and same_model = ref 0 and root_only = ref 0 in
  for i = 1 to 300 do
    let num_vars, clauses = if i mod 2 = 0 then tied_cnf rand else random_cnf rand in
    let tag = Printf.sprintf "CNF %d" i in
    let lit () = if rand 2 = 0 then T.pos (rand num_vars) else T.neg_of_var (rand num_vars) in
    let c = List.init (1 + rand 3) (fun _ -> lit ()) in
    let reuse = AS.load ~num_vars clauses and plain = AS.load ~num_vars clauses in
    Cdcl.add_blocking_clause reuse c;
    Cdcl.add_clause plain c;
    check string_t (tag ^ ": blocked at level 0") (solver_trace plain) (solver_trace reuse);
    let rec models k =
      match at_model ~num_vars clauses k with
      | None -> ()
      | Some s ->
        let vars = List.init (Cdcl.num_vars s) Fun.id in
        let at_level l = List.filter (fun v -> Cdcl.level s v = l) vars in
        let top = List.fold_left (fun acc v -> max acc (Cdcl.level s v)) 0 vars in
        let above = List.filter (fun v -> Cdcl.level s v > 0) vars in
        (* Each clause's variables, and whether it has a single literal
           above level 0. *)
        let kinds =
          [
            ("model", Some vars, false);
            ( "two at the top level",
              (match at_level top with a :: b :: _ -> Some [ a; b ] | _ -> None),
              false );
            ( "one above level 0",
              (match above with v :: _ -> Some (v :: at_level 0) | [] -> None),
              true );
          ]
        in
        List.iter
          (fun (name, vs, root_only_clause) ->
            match vs with
            | None -> ()
            | Some vs ->
              let tag = Printf.sprintf "%s, model %d, %s" tag k name in
              let clause = negation s vs in
              let reuse = Option.get (at_model ~num_vars clauses k) in
              let plain = Option.get (at_model ~num_vars clauses k) in
              let o1, m1, d1, p1, _ = search_after Cdcl.add_blocking_clause reuse clause in
              let o2, m2, d2, p2, c2 = search_after Cdcl.add_clause plain clause in
              check bool_t (tag ^ ": same answer") true (o1 = o2);
              if o1 = T.Sat then check bool_t (tag ^ ": clause holds") true (satisfies m1 clause);
              if o1 = T.Sat && c2 = 0 then begin
                incr same_model;
                check bool_t (tag ^ ": same model") true (m1 = m2);
                check bool_t (tag ^ ": no more work") true (d1 <= d2 && p1 <= p2);
                if d1 < d2 then incr kept
              end;
              if root_only_clause then begin
                incr root_only;
                check bool_t (tag ^ ": same stats") true (Cdcl.stats reuse = Cdcl.stats plain);
                check string_t (tag ^ ": same searches") (solver_trace plain) (solver_trace reuse)
              end)
          kinds;
        if k < 7 then models (k + 1)
    in
    models 0
  done;
  check bool_t "most blocks compared by model" true (!same_model > 1500);
  check bool_t "some blocks kept levels" true (!kept > 80);
  check bool_t "many clauses had one literal above level 0" true (!root_only > 1000)

(* ------------------------------------------------------------------ *)
(* The clause arena.                                                     *)

(* Load allocation guard: the words a bulk load allocates per input
   clause, for the FISCHER6 CNF and the first Table 3 puzzle's. The load
   sizes the clause arena, the clause list and every watch list once,
   so what remains is the per-variable arrays, the scratch buffer and
   the lists' growth during root propagation: about 15.1 and 8.6 words.
   A record and a literal array per stored clause, with watch lists
   grown by doubling, cost 26.3 and 14.6. *)
let test_load_alloc_guard () =
  let guard name ~bound p =
    let clauses = A.Ab_problem.clauses p in
    let num_vars = A.Ab_problem.num_bool_vars p in
    let _, words = Test_frontend.allocated_words (fun () -> AS.load ~num_vars clauses) in
    let per = words /. float_of_int (List.length clauses) in
    if per >= bound then
      Alcotest.failf "%s: %.0f words to load %d clauses: %.2f per clause (bound %.0f)" name
        words (List.length clauses) per bound
  in
  (match F.problem ~rounds:6 ~property:(F.Cs_within (Q.of_int 2)) ~n:6 () with
  | Ok p -> guard "FISCHER6" ~bound:18.0 p
  | Error e -> Alcotest.failf "fischer: %s" e);
  guard "first Table 3 puzzle" ~bound:11.0
    (Absolver_encodings.Sudoku.absolver_problem (snd (List.hd Absolver_encodings.Puzzles.all)))

(* Relocation: searches on the pigeonhole 9/8 CNF long enough to reduce
   the learnt-clause database, which compacts the arena and relocates
   every watch, reason and clause offset. Between two searches a copy of
   the first clause is added, so it is stored after learnt clauses and a
   later reduction moves it. The stored problem is the same afterwards
   (each clause's literals up to order, which propagation permutes), the
   learnt hook saw one clause per conflict and every learnt literal, and
   each clause it saw follows from the problem and the clauses before
   it. *)
let test_relocation () =
  let num_vars, cnf = pigeonhole 8 in
  let s = AS.load ~num_vars cnf in
  let stored () = List.map (List.sort compare) (Cdcl.clauses s) in
  let before = stored () and count = Cdcl.num_clauses s in
  let trace = Absolver_sat.Proof.record s in
  let search max_conflicts =
    check bool_t "no answer yet" true (Cdcl.solve ~max_conflicts s = T.Unknown);
    (Cdcl.stats s).T.reductions
  in
  let first = search 1500 in
  check bool_t "the first search reduced the database" true (first > 0);
  let extra = List.hd cnf in
  Cdcl.add_clause s extra;
  check bool_t "the second search reduced it again" true (search 3000 > first);
  let st = Cdcl.stats s in
  check int_t "num_clauses" (count + 1) (Cdcl.num_clauses s);
  check bool_t "clauses" true (stored () = before @ [ List.sort compare extra ]);
  check int_t "one learnt clause per conflict" st.T.conflicts (List.length !trace);
  check int_t "learnt literals" st.T.learnt_literals
    (List.fold_left (fun n c -> n + List.length c) 0 !trace);
  check bool_t "each learnt clause follows" true
    (Absolver_sat.Proof.check ~num_vars (cnf @ [ extra ]) !trace
    = Absolver_sat.Proof.Valid_partial)

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
    QCheck_alcotest.to_alcotest ~long:false block_keeps_models;
    Alcotest.test_case "cdcl: a blocked model keeps what a restart rebuilds" `Quick
      test_trail_reuse_edges;
    Alcotest.test_case "cdcl: a load allocates under a word bound per input clause" `Quick
      test_load_alloc_guard;
    Alcotest.test_case "cdcl: clause-DB reductions relocate every offset" `Quick
      test_relocation;
  ]
