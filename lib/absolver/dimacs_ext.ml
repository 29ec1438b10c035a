module Q = Absolver_numeric.Rational
module Expr = Absolver_nlp.Expr
module Types = Absolver_sat.Types
module Linexpr = Absolver_lp.Linexpr
module Dimacs = Absolver_sat.Dimacs

(* ------------------------------------------------------------------ *)
(* Lexer for arithmetic expressions and relations: one token of         *)
(* lookahead, read on demand from a range of the input text.           *)

type token =
  | T_num
  | T_ident
  | T_plus
  | T_minus
  | T_star
  | T_slash
  | T_caret
  | T_lparen
  | T_rparen
  | T_cmp
  | T_eof

type lexer = {
  src : string;
  mutable stop : int;
  mutable pos : int;
  mutable tok : token;  (* the current token ... *)
  mutable num : Q.t;  (* ... its value, for [T_num] *)
  mutable id_start : int;  (* ... its text, for [T_ident] *)
  mutable id_stop : int;
  mutable op : Linexpr.op;  (* ... its comparison, for [T_cmp] *)
}

exception Parse_error of string

(* Raised by the lexer only: see [run]. *)
exception Lex_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt
let lex_fail fmt = Printf.ksprintf (fun s -> raise (Lex_error s)) fmt
let is_digit c = c >= '0' && c <= '9'

let is_ident_char d =
  (d >= 'a' && d <= 'z') || (d >= 'A' && d <= 'Z') || is_digit d || d = '_' || d = '.'
  || d = '\''

(* A number token [src.[start .. stop - 1]]: plain digits are read in
   place, anything else by [Q.of_decimal_string]. *)
let number src start stop =
  let v = Dimacs.decimal_digits src start stop in
  if v >= 0 then Q.of_int v
  else
    let text = String.sub src start (stop - start) in
    match Q.of_decimal_string text with
    | q -> q
    | exception Invalid_argument _ -> lex_fail "malformed number %S" text

let cmp lx op width =
  lx.tok <- T_cmp;
  lx.op <- op;
  lx.pos <- lx.pos + width

let punct lx tok =
  lx.tok <- tok;
  lx.pos <- lx.pos + 1

let next_is s n i d = i + 1 < n && s.[i + 1] = d

let rec advance lx =
  let s = lx.src and n = lx.stop in
  let i = lx.pos in
  if i >= n then lx.tok <- T_eof
  else
    match s.[i] with
    | ' ' | '\t' ->
      lx.pos <- i + 1;
      advance lx
    | '+' -> punct lx T_plus
    | '-' -> punct lx T_minus
    | '*' -> punct lx T_star
    | '/' -> punct lx T_slash
    | '^' -> punct lx T_caret
    | '(' -> punct lx T_lparen
    | ')' -> punct lx T_rparen
    | '<' -> if next_is s n i '=' then cmp lx Linexpr.Le 2 else cmp lx Linexpr.Lt 1
    | '>' -> if next_is s n i '=' then cmp lx Linexpr.Ge 2 else cmp lx Linexpr.Gt 1
    | '=' -> cmp lx Linexpr.Eq (if next_is s n i '=' then 2 else 1)
    | c when is_digit c || c = '.' ->
      let j = ref i in
      let seen_e = ref false in
      let continue = ref true in
      while !continue && !j < n do
        let d = s.[!j] in
        if is_digit d || d = '.' then incr j
        else if
          (d = 'e' || d = 'E')
          && (not !seen_e)
          && !j + 1 < n
          &&
          let nx = s.[!j + 1] in
          is_digit nx || nx = '-' || nx = '+'
        then begin
          seen_e := true;
          j := !j + 2
        end
        else continue := false
      done;
      lx.num <- number s i !j;
      lx.tok <- T_num;
      lx.pos <- !j
    | c when (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' ->
      let j = ref (i + 1) in
      while !j < n && is_ident_char s.[!j] do
        incr j
      done;
      lx.tok <- T_ident;
      lx.id_start <- i;
      lx.id_stop <- !j;
      lx.pos <- !j
    | c -> lex_fail "unexpected character %C" c

(* The rest of the input, lexed and dropped. *)
let rec drain lx =
  if lx.tok <> T_eof then begin
    advance lx;
    drain lx
  end

let lexer src =
  { src; stop = 0; pos = 0; tok = T_eof; num = Q.zero; id_start = 0; id_stop = 0; op = Linexpr.Eq }

(* Run [parse problem] over [lx.src.[start .. stop - 1]]. The input is
   lexed as the parser goes, but a lexical error anywhere in it wins over
   a failure of the parser at an earlier token, as when the whole input
   was tokenized before parsing. *)
let run problem lx start stop parse =
  lx.pos <- start;
  lx.stop <- stop;
  match
    advance lx;
    parse problem lx
  with
  | v -> Ok v
  | exception Lex_error msg -> Error msg
  | exception e -> (
    match drain lx with
    | () -> ( match e with Parse_error msg -> Error msg | e -> raise e)
    | exception Lex_error msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Recursive-descent parser.                                           *)

let expect lx tok msg = if lx.tok = tok then advance lx else fail "expected %s" msg

(* The function symbols: 0 for an identifier that is none of them. *)
let function_code src i j =
  if Dimacs.is_word src i j "sqrt" then 1
  else if Dimacs.is_word src i j "exp" then 2
  else if Dimacs.is_word src i j "log" then 3
  else if Dimacs.is_word src i j "sin" then 4
  else if Dimacs.is_word src i j "cos" then 5
  else 0

let rec parse_sum problem lx = sum_rest problem lx (parse_product problem lx)

and sum_rest problem lx acc =
  match lx.tok with
  | T_plus ->
    advance lx;
    sum_rest problem lx (Expr.add acc (parse_product problem lx))
  | T_minus ->
    advance lx;
    sum_rest problem lx (Expr.sub acc (parse_product problem lx))
  | T_num | T_ident | T_star | T_slash | T_caret | T_lparen | T_rparen | T_cmp | T_eof -> acc

and parse_product problem lx = product_rest problem lx (parse_factor problem lx)

and product_rest problem lx acc =
  match lx.tok with
  | T_star ->
    advance lx;
    product_rest problem lx (Expr.mul acc (parse_factor problem lx))
  | T_slash ->
    advance lx;
    product_rest problem lx (Expr.div acc (parse_factor problem lx))
  | T_num | T_ident | T_plus | T_minus | T_caret | T_lparen | T_rparen | T_cmp | T_eof -> acc

and parse_factor problem lx =
  match lx.tok with
  | T_minus ->
    advance lx;
    Expr.neg (parse_factor problem lx)
  | T_plus ->
    advance lx;
    parse_factor problem lx
  | T_num | T_ident | T_lparen -> parse_power problem lx
  | T_star | T_slash | T_caret | T_rparen | T_cmp | T_eof -> fail "expected a factor"

and parse_power problem lx =
  let base = parse_atom problem lx in
  match lx.tok with
  | T_caret ->
    advance lx;
    if lx.tok = T_minus then begin
      advance lx;
      Expr.pow base (-exponent lx "'^-'")
    end
    else Expr.pow base (exponent lx "'^'")
  | _ -> base

and exponent lx after =
  if lx.tok = T_num && Q.is_integer lx.num then begin
    let q = lx.num in
    advance lx;
    Absolver_numeric.Bigint.to_int (Q.num q)
  end
  else fail "expected integer exponent after %s" after

and parse_atom problem lx =
  match lx.tok with
  | T_num ->
    let q = lx.num in
    advance lx;
    Expr.const q
  | T_lparen ->
    advance lx;
    let e = parse_sum problem lx in
    expect lx T_rparen "')'";
    e
  | T_ident -> (
    let i = lx.id_start and j = lx.id_stop in
    match function_code lx.src i j with
    | 0 ->
      advance lx;
      Expr.var (Ab_problem.intern_arith_var problem (String.sub lx.src i (j - i)))
    | f ->
      advance lx;
      if lx.tok <> T_lparen then fail "expected '(' after %s" (String.sub lx.src i (j - i));
      advance lx;
      let arg = parse_sum problem lx in
      expect lx T_rparen "')'";
      match f with
      | 1 -> Expr.sqrt arg
      | 2 -> Expr.exp arg
      | 3 -> Expr.log arg
      | 4 -> Expr.sin arg
      | _ -> Expr.cos arg)
  | T_plus | T_minus | T_star | T_slash | T_caret | T_rparen | T_cmp | T_eof ->
    fail "expected a number, variable or '('"

let expr problem lx =
  let e = parse_sum problem lx in
  if lx.tok <> T_eof then fail "trailing tokens after expression";
  e

let parse_expr problem text = run problem (lexer text) 0 (String.length text) expr

let rel problem lx =
  let lhs = parse_sum problem lx in
  if lx.tok <> T_cmp then fail "expected a comparison operator";
  let op = lx.op in
  advance lx;
  let rhs = parse_sum problem lx in
  if lx.tok <> T_eof then fail "trailing tokens after relation";
  { Expr.expr = Expr.sub lhs rhs; op; tag = 0 }

let parse_rel problem text = run problem (lexer text) 0 (String.length text) rel

(* ------------------------------------------------------------------ *)
(* File-level parsing: one pass over the text (see {!Dimacs.cursor}).  *)

let bound_value text i j =
  if Dimacs.is_word text i j "_" then Ok None
  else
    let s = String.sub text i (j - i) in
    match Q.of_decimal_string s with
    | q -> Ok (Some q)
    | exception (Invalid_argument _ | Failure _ | Division_by_zero) ->
      Error (Printf.sprintf "malformed bound value %S" s)

let rec list_of_prefix a i acc = if i < 0 then acc else list_of_prefix a (i - 1) (a.(i) :: acc)

let parse_string text =
  let problem = Ab_problem.create () in
  let error = ref None in
  let cur = Dimacs.cursor text in
  let lx = lexer text in
  let set_error msg =
    if !error = None then error := Some (Printf.sprintf "line %d: %s" cur.line_no msg)
  in
  (* The literals of the clause being read. *)
  let lits = ref (Array.make 16 0) in
  let n_lits = ref 0 in
  let flush () =
    Ab_problem.add_clause problem (list_of_prefix !lits (!n_lits - 1) []);
    n_lits := 0
  in
  let int n =
    if n = 0 then flush ()
    else begin
      if !n_lits = Array.length !lits then begin
        let a = Array.make (2 * !n_lits) 0 in
        Array.blit !lits 0 a 0 !n_lits;
        lits := a
      end;
      !lits.(!n_lits) <- Types.of_dimacs n;
      incr n_lits
    end
  in
  let bad tok = set_error (Printf.sprintf "bad literal %S" tok) in
  (* "c def int 1 i >= 0": the domain, the DIMACS variable, then the
     relation from the next token to the end of the line. *)
  let handle_def b e =
    let d0 = Dimacs.skip_blanks text b e in
    let d1 = Dimacs.token_end text d0 e in
    let v0 = Dimacs.skip_blanks text d1 e in
    let v1 = Dimacs.token_end text v0 e in
    let domain =
      if Dimacs.is_word text d0 d1 "int" then Some Ab_problem.Dint
      else if Dimacs.is_word text d0 d1 "real" then Some Ab_problem.Dreal
      else None
    in
    let var = try Dimacs.int_token text v0 v1 with Dimacs.Not_int -> 0 in
    match domain with
    | Some domain when var > 0 -> (
      match run problem lx (Dimacs.skip_blanks text v1 e) e rel with
      | Ok rel -> Ab_problem.define problem ~bool_var:(var - 1) ~domain rel
      | Error msg -> set_error msg)
    | _ -> set_error "malformed def line"
  in
  (* "c bound x lo hi", exactly three tokens. *)
  let handle_bound b e =
    let n0 = Dimacs.skip_blanks text b e in
    let n1 = Dimacs.token_end text n0 e in
    let l0 = Dimacs.skip_blanks text n1 e in
    let l1 = Dimacs.token_end text l0 e in
    let h0 = Dimacs.skip_blanks text l1 e in
    let h1 = Dimacs.token_end text h0 e in
    if n0 < n1 && l0 < l1 && h0 < h1 && Dimacs.skip_blanks text h1 e = e then begin
      let v = Ab_problem.intern_arith_var problem (String.sub text n0 (n1 - n0)) in
      match (bound_value text l0 l1, bound_value text h0 h1) with
      | Ok lo, Ok hi -> Ab_problem.set_bounds problem v ?lower:lo ?upper:hi ()
      | Error m, _ | _, Error m -> set_error m
    end
    else set_error "malformed bound line"
  in
  while Dimacs.next_line cur do
    let s = cur.start and e = cur.stop in
    match text.[s] with
    | 'c' ->
      let b = ref (s + 1) in
      while !b < e && Dimacs.is_space text.[!b] do
        incr b
      done;
      if Dimacs.has_prefix text !b e "def " then handle_def (!b + 4) e
      else if Dimacs.has_prefix text !b e "bound " then handle_bound (!b + 6) e
      (* else a plain comment *)
    | 'p' -> (
      match Dimacs.problem_line cur with
      | Some ((v0, v1), _) -> (
        match Dimacs.int_token text v0 v1 with
        | v -> Ab_problem.ensure_bool_vars problem v
        | exception Dimacs.Not_int -> set_error "malformed problem line")
      | None -> set_error "malformed problem line")
    | _ -> Dimacs.read_ints cur ~int ~bad
  done;
  if !n_lits > 0 then flush ();
  match !error with
  | Some msg -> Error msg
  | None -> (
    match Ab_problem.validate problem with
    | Ok () -> Ok problem
    | Error msg -> Error msg)

let parse_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let n = in_channel_length ic in
    let content = really_input_string ic n in
    close_in ic;
    parse_string content

let to_string problem =
  let buf = Buffer.create 1024 in
  let clauses = Ab_problem.clauses problem in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n"
       (Ab_problem.num_bool_vars problem)
       (List.length clauses));
  List.iter
    (fun clause ->
      List.iter
        (fun l -> Buffer.add_string buf (string_of_int (Types.to_dimacs l) ^ " "))
        clause;
      Buffer.add_string buf "0\n")
    clauses;
  let name v = Ab_problem.arith_var_name problem v in
  List.iter
    (fun (d : Ab_problem.def) ->
      Buffer.add_string buf
        (Format.asprintf "c def %a %d %s %a 0\n" Ab_problem.pp_domain d.domain
           (d.bool_var + 1)
           (Expr.to_string ~name d.rel.Expr.expr)
           Linexpr.pp_op d.rel.Expr.op))
    (Ab_problem.defs problem);
  List.iter
    (fun (v, (lo, hi)) ->
      let s = function None -> "_" | Some q -> Q.to_string q in
      Buffer.add_string buf
        (Printf.sprintf "c bound %s %s %s\n" (name v) (s lo) (s hi)))
    (Ab_problem.bounds problem);
  Buffer.contents buf

let write_file path problem =
  let oc = open_out path in
  output_string oc (to_string problem);
  close_out oc
