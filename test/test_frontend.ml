(* The text front ends: extended DIMACS, plain DIMACS, SMT-LIB 1.2 and
   2, and the server's JSON and frame reader.

   The identity digests below were computed with the token-list parsers
   of commit 1bce76f, before the single-pass rewrite: each covers the
   parsed problem (its extended-DIMACS rendering, the arithmetic
   variable numbering, the projection and the SMT-LIB predicate map), so
   a change in clause order, variable numbering, definition order,
   expression shape or sharing shows as a different digest. The error
   table pins the same commit's diagnostics, except where that commit
   was wrong: non-decimal literals such as [0x1F] are now bad literals,
   a bad [c bound] value is named as such, a [\u] escape cut short
   by a quote is reported at its offset, an underscore is not a hex
   digit of a [\u] escape, and a decimal exponent beyond 1000 is a
   malformed number (that commit's reader did not return on
   [1e99999999999]). *)

module A = Absolver_core
module SL = Absolver_smtlib
module Q = Absolver_numeric.Rational
module Expr = Absolver_nlp.Expr
module Types = Absolver_sat.Types
module Dimacs = Absolver_sat.Dimacs
module S = Absolver_encodings.Sudoku
module P = Absolver_encodings.Puzzles
module Sjson = Absolver_server.Sjson
module Io = Absolver_server.Io

let check = Alcotest.check
let string_t = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Identity digests                                                     *)

let problem_text ?(preds = []) p =
  let b = Buffer.create 4096 in
  Buffer.add_string b (A.Dimacs_ext.to_string p);
  Buffer.add_string b "arith:";
  for i = 0 to A.Ab_problem.num_arith_vars p - 1 do
    Buffer.add_char b ' ';
    Buffer.add_string b (A.Ab_problem.arith_var_name p i)
  done;
  Buffer.add_string b "\nprojection:";
  (match A.Ab_problem.projection p with
  | None -> Buffer.add_string b " none"
  | Some vs -> List.iter (fun v -> Buffer.add_string b (Printf.sprintf " %d" v)) vs);
  Buffer.add_string b "\npreds:";
  List.iter (fun (n, v) -> Buffer.add_string b (Printf.sprintf " %s=%d" n v)) preds;
  Buffer.add_char b '\n';
  Buffer.contents b

let digest texts = Digest.to_hex (Digest.string (String.concat "\x00" texts))

let dimacs_text text =
  match A.Dimacs_ext.parse_string text with
  | Ok p -> problem_text p
  | Error e -> "error: " ^ e

let smt1_text text =
  match SL.Parser.parse_benchmark text with
  | Error e -> "parse error: " ^ e
  | Ok b -> (
    match SL.To_ab.convert_full b with
    | Ok (p, preds) -> problem_text ~preds p
    | Error e -> "convert error: " ^ e)

let fischer_text ~n ~rounds ~deadline =
  SL.Ast.to_string
    (SL.Fischer.benchmark ~rounds ~property:(SL.Fischer.Cs_within deadline) ~n ())

(* FISCHER1..11 as Table 2 runs them, 6 rounds with deadline 2. *)
let table2_texts () =
  List.init 11 (fun i -> fischer_text ~n:(i + 1) ~rounds:6 ~deadline:(Q.of_int 2))

(* Seeded unrollings at the bmc workload's sizes, deadlines in quarters. *)
let seeded_fischer_texts () =
  let st = Random.State.make [| 29 |] in
  List.concat_map
    (fun (n, rounds) ->
      List.init 2 (fun _ ->
          let quarters = 2 + Random.State.int st 19 in
          fischer_text ~n ~rounds ~deadline:(Q.of_ints quarters 4)))
    [ (2, 3); (3, 8); (4, 4); (5, 5); (7, 6); (9, 4); (11, 5) ]

let sudoku_text puzzle = A.Dimacs_ext.to_string (S.absolver_problem puzzle)
let table3_texts () = List.map (fun (_, p) -> sudoku_text p) P.all

let seeded_sudoku_texts () =
  List.init 20 (fun i ->
      sudoku_text (P.generate ~name:(Printf.sprintf "frontend_%02d" i) ~clues:(24 + i)))

let smt1_samples =
  [
    {|(benchmark sample
  :logic QF_LRA
  :status sat
  :extrafuns ((x Real) (y Real))
  :extrapreds ((p))
  :assumption (>= x 0)
  :formula (and (or p (<= (+ x y) 2)) (> y (~ 1)))
)|};
    {|(benchmark tiny_unsat
  :logic QF_LRA
  :status unsat
  :extrafuns ((x Real))
  :formula (and (>= x 1) (<= x 0))
)|};
    {|(benchmark int_test
  :logic QF_LIA
  :status unsat
  :extrafuns ((n Int))
  :formula (and (> n 0) (< n 1))
)|};
    (* every connective, shared atoms, decimals, fractions and signs *)
    {|(benchmark shapes ; a comment (with a paren
  :logic QF_LRA :status unknown :source "a ""quoted"" source" :notes |n|
  :extrafuns ((a Real) (b Real) (k Int) (m Int) (flag Bool))
  :extrapreds ((p) q (r))
  :assumption (implies p (= (* 2 a) (- b 1.5)))
  :assumption (iff q (xor r (not p)))
  :formula (and (or (< (+ a b k) 3/4) (>= (~ a) -2.25) (q))
                (=> (r) (<= (* a 2 b) (/ a 4)))
                (<=> p (> (- a) (+ 0.5 m)))
                (= (* 2 a) (- b 1.5))
                (or true (and false p)))
)|};
  ]

let smt2_scripts =
  [
    "(set-logic QF_LRA)(declare-const x Real)(assert (and (>= x 2) (<= x 2)))\
     (check-sat)(get-model)";
    "(declare-const x Real)(assert (>= x 10))(push 1)(assert (<= x 5))\
     (check-sat)(pop 1)(check-sat)(get-model)";
    "(declare-const p Bool)(declare-const q Bool)(assert (= p q))\
     (assert p)(check-sat)(get-model)";
    "(declare-const x Real)(declare-const p Bool)\
     (assert (let ((y (+ x 1))) (<= y 4)))\
     (assert (ite p (<= x 3) (<= x 100)))(assert p)(check-sat)(get-model)";
    "(declare-const k Int)(assert (> k (/ 7 2)))(assert (< k 5))\
     (check-sat)(get-model)";
    "(declare-const x Real)(assert y)(assert (>= x 1))(check-sat)(assert (foo";
    "; comment\n(set-option :print-success true)(echo \"a \"\"b\"\" ;)\")\
     (declare-fun z () Real)(assert (< (* 2 z) (- 3)))(check-sat)(get-model)";
    "(reset)\n(set-logic QF_LRA)\n(declare-const x Real)\n(declare-const y Real)\n\
     (declare-const p Bool)\n(assert (or p (<= (+ (* 3 x) (* 2 y)) -4)))\n(push 1)\n\
     (assert (or (not p) (>= x 7)))\n(check-sat)\n(pop 1)\n\
     (assert (<= (+ (* 1 x) (* 5 y)) 8))\n(check-sat)\n";
  ]

let rec sexp_text = function
  | SL.Parser.Atom a -> a
  | SL.Parser.List l -> "(" ^ String.concat " " (List.map sexp_text l) ^ ")"

let smt2_text script =
  let sexps =
    match SL.Parser.parse_sexps script with
    | Ok l -> String.concat "\n" (List.map sexp_text l)
    | Error e -> "error: " ^ e
  in
  let session = SL.Smt2.create () in
  let replies, _ = SL.Smt2.run_string session ~check:(SL.Smt2.engine_check ()) script in
  sexps ^ "\n--\n" ^ String.concat "\n" replies

(* Hand-written extended DIMACS: nonlinear operators, decimal and
   exponent constants, signs, bounds, CRLF, tabs, clauses split over
   lines, repeated definitions. *)
let dimacs_samples =
  [
    "p cnf 4 3\n1 -2 0\n2 3\n-4 0\n4 0\nc def int 1 i >= 0\nc def int 1 j >= 0\n\
     c def real 4 a * x + 3.5 / ( 4 - y ) + 2 * y >= 7.1\nc bound x -7.0 7.0\n";
    "p cnf 3 2\r\n1 2 0\r\n\t-3  0 \r\nc\tdef real 1 sqrt(x) + exp(y) - log(z + 1) < 2.5e-1\r\n\
     c  def real 2 sin(x)^2 + cos(x)^-2 = 1\r\nc def real 3 -x^3 - -2 <= (y / -4) * 1E2\r\n\
     c bound x _ 10\r\nc bound y -1/3 _\r\nc name 3 stable\r\n";
    "c only a comment\np cnf 2 1\n1 2 0\nc def int 2 x_1.a' + 0.000 >= 0.5\n\
     c def int 2 x_1.a' + 0.000 >= 0.5\nc def real 1 ((x)) == 3\n";
    "p cnf 5 2\n1 2 3 4 5 0 -1 -2 0\nc def real 5 2 * 3 + x * (4 - 4) > 1 / 2\n";
  ]

let identity name expected texts render () =
  check string_t name expected (digest (List.map render (texts ())))

let identity_cases =
  [
    ( "FISCHER1..11",
      "de5f317138e1a91fd2837a9ee70de3af",
      table2_texts,
      smt1_text );
    ( "seeded Fischer unrollings",
      "80f018557cf530192b46ff42e8c22d12",
      seeded_fischer_texts,
      smt1_text );
    ("Table 3 puzzles", "db8dea56000ebad52dde50b10ed703e3", table3_texts, dimacs_text);
    ( "seeded puzzles",
      "7cb90ff5d7c2a2cf12a0cdfce11df998",
      seeded_sudoku_texts,
      dimacs_text );
    ( "SMT-LIB 1.2 samples",
      "50da7b1ed0d86b334097f081a2500536",
      (fun () -> smt1_samples),
      smt1_text );
    ( "SMT-LIB 2 scripts",
      "547ec2ca455449b6c2b617e757413ecd",
      (fun () -> smt2_scripts),
      smt2_text );
    ( "hand-written extended DIMACS",
      "2a11a090a6b43eb5401d08b3c4dfcdcc",
      (fun () -> dimacs_samples),
      dimacs_text );
  ]

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                          *)

let result_text = function Ok _ -> "ok" | Error e -> e

let dimacs_ext_errors =
  [
    ("p cnf 2 1\n1 x 0\n", "line 2: bad literal \"x\"");
    ("1 2 3a 0\n", "line 1: bad literal \"3a\"");
    ("1 99999999999999999999 0\n", "line 1: bad literal \"99999999999999999999\"");
    ("1 0x1F 0\n", "line 1: bad literal \"0x1F\"");
    ("0\n", "empty clause");
    ("p cnf x 1\n", "line 1: malformed problem line");
    ("p dnf 1 1\n", "line 1: malformed problem line");
    ("p cnf 1\n", "line 1: malformed problem line");
    ("pcnf 1 1\n", "line 1: malformed problem line");
    ("c def int 0 x >= 0\n", "line 1: malformed def line");
    ("c def foo 1 x >= 0\n", "line 1: malformed def line");
    ("c def int\n", "line 1: malformed def line");
    ("c def int 1\n", "line 1: expected a factor");
    ("c def int 1 x >=\n", "line 1: expected a factor");
    ("c def int 1 x # 0\n", "line 1: unexpected character '#'");
    ("c def int 1 (x + 1 >= 0\n", "line 1: expected ')'");
    ("c def int 1 x + ) # 2 >= 0\n", "line 1: unexpected character '#'");
    ("c def int 1 x >= 0 0\n", "line 1: trailing tokens after relation");
    ("c def int 1 x ^ y >= 0\n", "line 1: expected integer exponent after '^'");
    ("c def int 1 x ^ 1.5 >= 0\n", "line 1: expected integer exponent after '^'");
    ("c def int 1 x ^ - y >= 0\n", "line 1: expected integer exponent after '^-'");
    ("c def int 1 sqrt x >= 0\n", "line 1: expected '(' after sqrt");
    ("c def int 1 1.2.3 >= x\n", "line 1: malformed number \"1.2.3\"");
    ("c def int 1 . >= x\n", "line 1: malformed number \".\"");
    ("c def real 1 x >= 1e99999999999\n", "line 1: malformed number \"1e99999999999\"");
    ("c def real 1 x >= 1e1001\n", "line 1: malformed number \"1e1001\"");
    ("c def int 1 x > = 0\n", "line 1: expected a factor");
    ("c def int 1 x\r>= 0\n", "line 1: unexpected character '\\r'");
    ("c bound x 1\n", "line 1: malformed bound line");
    ("c bound x a b\n", "line 1: malformed bound value \"a\"");
    ("c bound x 1 2 3\n", "line 1: malformed bound line");
    ("c bound x _ 1.5.2\n", "line 1: malformed bound value \"1.5.2\"");
    ("c bound x 1eZ 2\n", "line 1: malformed bound value \"1eZ\"");
    ("c bound x 1/0 2\n", "line 1: malformed bound value \"1/0\"");
    ("c bound x 0 1e99999999999\n", "line 1: malformed bound value \"1e99999999999\"");
    ("c bound x 1e-99999999999 1\n", "line 1: malformed bound value \"1e-99999999999\"");
    ("c bound x 0 1e99999999999999999999\n",
     "line 1: malformed bound value \"1e99999999999999999999\"");
    ("1 y 0\nc def int 0 x >= 0\nc bound x 1\n", "line 1: bad literal \"y\"");
  ]

let dimacs_errors =
  [
    ("p cnf 2 1\n1 x 0\n", "line 2: bad literal \"x\"");
    ("p cnf 2 x\n", "line 1: malformed problem line");
    ("p cnf 2\n", "line 1: malformed problem line");
    ("1 2 - 0\n", "line 1: bad literal \"-\"");
    ("1 0x1F 0\n", "line 1: bad literal \"0x1F\"");
    ("1 +5 0\n", "line 1: bad literal \"+5\"");
    ("p cnf 0b11 1\n", "line 1: malformed problem line");
  ]

let sexp_errors =
  [
    ("(a (b)", "unclosed parenthesis");
    ("a) b", "unexpected ')'");
    ("(a \"bc", "unterminated string literal");
    (") \"abc", "unterminated string literal");
    ("(a)) (b \"c", "unterminated string literal");
    ("(a ; (b\n", "unclosed parenthesis");
  ]

let benchmark_errors =
  [
    ("(benchmark b :logic)", "unknown attribute :logic");
    ("(benchmark b :extrafuns ((x Foo)) :formula true)", "unknown sort Foo");
    ("(benchmark b :extrafuns (x) :formula true)", "malformed extrafuns entry");
    ("(benchmark b :extrapreds ((p q)) :formula true)", "malformed extrapreds entry");
    ("(benchmark b :formula (and (+ x 1)))", "unsupported formula");
    ("(benchmark b :formula (< (foo x) 1))", "unsupported term");
    ("(benchmark b :logic QF_LRA)", "benchmark has no :formula");
    ("(benchmark b) (benchmark c)", "expected a single (benchmark ...) form");
    ("(benchmark b :formula (>= x 1) (y))", "unexpected list at attribute position");
    ("(benchmark b :formula (and q))", "undeclared predicate q");
  ]

let json_errors =
  [
    ("{\"a\":\"b\\q\"}", "invalid escape \\q");
    ("{\"a\":\"\\u12G4\"}", "invalid \\u escape 12G4");
    ("{\"a\":\"\\u_123\"}", "invalid \\u escape _123");
    ("{\"id\":\"\\u0_41\",\"op\":\"health\"}", "invalid \\u escape 0_41");
    ("{\"a\":\"\\u12\"}", "short \\u escape at 6");
    ("{\"a\":\"\\u12", "truncated \\u escape");
    ("{\"a\":nul}", "invalid literal at 5");
    ("[1,2", "expected ',' or ']' at 4");
    ("{\"a\":\"abc", "unterminated string (opened at byte 5)");
    ("{\"a\":\"abc\\", "unterminated escape (string opened at byte 5)");
    ("{\"a\" 1}", "expected ':', got '1' at 5");
    ("{\"a\":1,}", "expected '\"', got '}' at 7");
    ("[1 2]", "expected ',' or ']' at 3");
    ("tru", "invalid literal at 0");
    ("{\"a\":-}", "invalid number -");
    ("{\"a\":1} x", "trailing input at 8");
    ("@", "unexpected character '@' at 0");
    ("", "unexpected end of input");
  ]

let error_table name parse cases () =
  List.iter (fun (input, expected) -> check string_t (name ^ " " ^ String.escaped input) expected (parse input)) cases

let smt1_convert text =
  match SL.Parser.parse_benchmark text with
  | Error e -> e
  | Ok b -> result_text (SL.To_ab.convert b)

let error_cases =
  [
    ("extended DIMACS", (fun s -> result_text (A.Dimacs_ext.parse_string s)), dimacs_ext_errors);
    ("plain DIMACS", (fun s -> result_text (Dimacs.parse_string s)), dimacs_errors);
    ("s-expressions", (fun s -> result_text (SL.Parser.parse_sexps s)), sexp_errors);
    ("SMT-LIB 1.2", smt1_convert, benchmark_errors);
    ("JSON", (fun s -> result_text (Sjson.parse s)), json_errors);
  ]

let suite =
  List.map
    (fun (name, expected, texts, render) ->
      Alcotest.test_case ("identity: " ^ name) `Quick (identity name expected texts render))
    identity_cases
  @ List.map
      (fun (name, parse, cases) ->
        Alcotest.test_case ("errors: " ^ name) `Quick (error_table name parse cases))
      error_cases

(* ------------------------------------------------------------------ *)
(* Allocation                                                           *)

(* Words allocated by [f]: [Gc.minor_words] is exact at any moment, the
   minor count of [Gc.counters] only at collections. *)
let allocated_words f =
  let snapshot () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = snapshot () in
  let r = f () in
  (r, snapshot () -. w0)

(* Reading a Table 3 puzzle builds its clause lists and definitions and
   little else: under 2 words per input byte (the token-list parser of
   commit 1bce76f allocated about 8.7). *)
let test_puzzle_allocation () =
  let text = sudoku_text (snd (List.hd P.all)) in
  ignore (A.Dimacs_ext.parse_string text);
  let r, words = allocated_words (fun () -> A.Dimacs_ext.parse_string text) in
  (match r with Ok _ -> () | Error e -> Alcotest.fail e);
  let per_byte = words /. float_of_int (String.length text) in
  if per_byte >= 2.0 then Alcotest.failf "%.2f words per input byte" per_byte

(* A 4 MB frame arriving in 8 KiB writes is read in allocation linear in
   its size: the line itself, plus a buffer that doubles as it fills.
   Copying the whole pending buffer after every read, as the reader of
   commit 1bce76f did, allocated about 124M words here. *)
let test_long_frame_reading () =
  let frame_bytes = 4_000_000 in
  let rd, wr = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = String.make 8192 'x' in
  let writer =
    Thread.create
      (fun () ->
        let sent = ref 0 in
        while !sent < frame_bytes do
          let n = min 8192 (frame_bytes - !sent) in
          let rec write off len =
            if len > 0 then begin
              let k = Unix.write_substring wr payload off len in
              write (off + k) (len - k)
            end
          in
          write 0 n;
          sent := !sent + n
        done;
        ignore (Unix.write_substring wr "\n" 0 1))
      ()
  in
  let reader = Io.reader ~limits:Io.unlimited rd in
  let event, words = allocated_words (fun () -> Io.read_line reader) in
  (match event with
  | Io.Line line -> Alcotest.(check int) "frame length" frame_bytes (String.length line)
  | _ -> Alcotest.fail "no line");
  Thread.join writer;
  Unix.close rd;
  Unix.close wr;
  let frame_words = float_of_int frame_bytes /. 8.0 in
  if words > 4.0 *. frame_words then
    Alcotest.failf "%.0f words to read a frame of %.0f words" words frame_words

(* ------------------------------------------------------------------ *)
(* Round trips                                                          *)

let names = [| "x"; "y"; "z_1"; "v.a"; "w'"; "T2" |]
let decimals = [| "2.5"; "-0.125"; "1e3"; "3.75e-2"; "-7"; "0.0"; "12345678901234567890" |]

(* A random AB-problem: clauses, definitions over nonlinear terms with
   negative, fractional and decimal constants, and one- or two-sided
   bounds. *)
let random_problem st =
  let int n = Random.State.int st n in
  let p = A.Ab_problem.create () in
  let nb = 1 + int 8 in
  A.Ab_problem.ensure_bool_vars p nb;
  for _ = 1 to int 6 do
    A.Ab_problem.add_clause p
      (List.init (1 + int 4) (fun _ ->
           let v = int nb in
           if Random.State.bool st then Types.pos v else Types.neg_of_var v))
  done;
  let var () = A.Ab_problem.intern_arith_var p names.(int (Array.length names)) in
  let const () =
    match int 3 with
    | 0 -> Q.of_ints (int 101 - 50) (1 + int 8)
    | 1 -> Q.of_decimal_string decimals.(int (Array.length decimals))
    | _ -> Q.of_int (int 21 - 10)
  in
  let rec expr d =
    if d = 0 then if Random.State.bool st then Expr.var (var ()) else Expr.const (const ())
    else
      match int 11 with
      | 0 -> Expr.add (expr (d - 1)) (expr (d - 1))
      | 1 -> Expr.sub (expr (d - 1)) (expr (d - 1))
      | 2 -> Expr.mul (expr (d - 1)) (expr (d - 1))
      | 3 -> Expr.div (expr (d - 1)) (expr (d - 1))
      | 4 -> Expr.neg (expr (d - 1))
      | 5 -> Expr.pow (expr (d - 1)) (int 6 - 2)
      | 6 -> Expr.sqrt (expr (d - 1))
      | 7 -> Expr.exp (expr (d - 1))
      | 8 -> Expr.sin (expr (d - 1))
      | _ -> expr 0
  in
  let ops = [| Absolver_lp.Linexpr.Lt; Le; Gt; Ge; Eq |] in
  for _ = 1 to int 5 do
    A.Ab_problem.define p ~bool_var:(int nb)
      ~domain:(if Random.State.bool st then A.Ab_problem.Dint else A.Ab_problem.Dreal)
      { Expr.expr = expr (int 4); op = ops.(int 5); tag = 0 }
  done;
  for _ = 1 to int 3 do
    let side () = if Random.State.bool st then Some (const ()) else None in
    let lower = side () in
    let upper = side () in
    A.Ab_problem.set_bounds p (var ()) ?lower ?upper ()
  done;
  p

let parse_ok text =
  match A.Dimacs_ext.parse_string text with
  | Ok p -> p
  | Error e -> QCheck.Test.fail_reportf "%s in\n%s" e text

(* Values of a term at a point given by variable name. *)
let agree st p p' e e' =
  let point = Hashtbl.create 8 in
  let value p v =
    let name = A.Ab_problem.arith_var_name p v in
    match Hashtbl.find_opt point name with
    | Some q -> q
    | None ->
      let q = Q.of_ints (Random.State.int st 41 - 20) (1 + Random.State.int st 4) in
      Hashtbl.replace point name q;
      q
  in
  List.for_all
    (fun _ ->
      Hashtbl.reset point;
      match (Expr.eval_exact (value p) e, Expr.eval_exact (value p') e') with
      | Some a, Some b -> Q.equal a b
      | None, None ->
        let a = Expr.eval_float (fun v -> Q.to_float (value p v)) e
        and b = Expr.eval_float (fun v -> Q.to_float (value p' v)) e' in
        (Float.is_nan a && Float.is_nan b)
        || a = b
        || Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)
      | _ -> false)
    [ 1; 2; 3 ]

let named_bounds p =
  List.map (fun (v, b) -> (A.Ab_problem.arith_var_name p v, b)) (A.Ab_problem.bounds p)
  |> List.sort compare

(* [to_string] then [parse_string] keeps clauses, Boolean variables,
   definitions (up to the constant folding the parser does) and bounds;
   and a second round changes nothing. *)
let dimacs_round_trip =
  QCheck.Test.make ~name:"extended DIMACS: to_string then parse" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let p = random_problem st in
      let text = A.Dimacs_ext.to_string p in
      let p' = parse_ok text in
      let ds = A.Ab_problem.defs p and ds' = A.Ab_problem.defs p' in
      let fail what = QCheck.Test.fail_reportf "%s differ after a round trip of\n%s" what text in
      (A.Ab_problem.num_bool_vars p = A.Ab_problem.num_bool_vars p' || fail "Boolean variables")
      && (A.Ab_problem.clauses p = A.Ab_problem.clauses p' || fail "clauses")
      && (named_bounds p = named_bounds p' || fail "bounds")
      && (List.length ds = List.length ds' || fail "definition counts")
      && (List.for_all2
           (fun (d : A.Ab_problem.def) (d' : A.Ab_problem.def) ->
             d.bool_var = d'.bool_var && d.domain = d'.domain
             && d.rel.Expr.op = d'.rel.Expr.op
             && agree st p p' d.rel.Expr.expr d'.rel.Expr.expr)
           ds ds' || fail "definitions")
      &&
      let text' = A.Dimacs_ext.to_string p' in
      A.Dimacs_ext.to_string (parse_ok text') = text' || fail "second round texts")

let json_round_trip =
  QCheck.Test.make ~name:"JSON: any string survives to_string then parse" ~count:500
    QCheck.(pair string string)
    (fun (k, v) ->
      Sjson.parse (Sjson.to_string (Sjson.Obj [ (k, Sjson.Str v); ("n", Sjson.Num 1.) ]))
      = Ok (Sjson.Obj [ (k, Sjson.Str v); ("n", Sjson.Num 1.) ]))

(* Escapes as a JSON writer may send them, decoded. *)
let escapes =
  [|
    ({|\"|}, "\"");
    ({|\\|}, "\\");
    ({|\/|}, "/");
    ({|\b|}, "\b");
    ({|\f|}, "\012");
    ({|\n|}, "\n");
    ({|\r|}, "\r");
    ({|\t|}, "\t");
    ({|\u0041|}, "A");
    ({|\u00e9|}, "\xc3\xa9");
    ({|\u20AC|}, "\xe2\x82\xac");
    ({|\u0123|}, "\xc4\xa3");
    ("plain", "plain");
    ("", "");
  |]

let json_escapes =
  QCheck.Test.make ~name:"JSON: escapes decode in any mix" ~count:500
    QCheck.(list (int_bound (Array.length escapes - 1)))
    (fun picks ->
      let body = String.concat "" (List.map (fun i -> fst escapes.(i)) picks) in
      let decoded = String.concat "" (List.map (fun i -> snd escapes.(i)) picks) in
      Sjson.parse ("\"" ^ body ^ "\"") = Ok (Sjson.Str decoded))

(* Inputs at the edge of the readers' number syntax, read and solved:
   the largest decimal exponent is a number, and a relation divided by a
   zero constant has no real value, so presolve refutes it. *)
let test_edge_answers () =
  let solve text =
    match A.Dimacs_ext.parse_string text with
    | Error e -> e
    | Ok p -> (
      match fst (A.Engine.solve p) with
      | A.Engine.R_sat _ -> "sat"
      | A.Engine.R_unsat -> "unsat"
      | A.Engine.R_unknown why -> "unknown (" ^ why ^ ")")
  in
  check string_t "largest exponent" "sat" (solve "p cnf 1 1\n1 0\nc def real 1 x >= 1e1000\n");
  check string_t "smallest exponent" "sat" (solve "p cnf 1 1\n1 0\nc def real 1 x >= 1e-1000\n");
  check string_t "division by zero" "unsat"
    (solve "p cnf 1 1\n1 0\nc def real 1 x / 0 >= 1\nc bound x 0 10\n")

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest [ dimacs_round_trip; json_round_trip; json_escapes ]
  @ [
      Alcotest.test_case "a Table 3 puzzle allocates under 2 words per byte" `Quick
        test_puzzle_allocation;
      Alcotest.test_case "a 4 MB frame reads in linear allocation" `Quick
        test_long_frame_reading;
      Alcotest.test_case "edge inputs: answers" `Quick test_edge_answers;
    ]
