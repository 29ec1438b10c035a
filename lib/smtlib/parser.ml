module Q = Absolver_numeric.Rational

type sexp = Atom of string | List of sexp list

exception Err of string

let failf fmt = Printf.ksprintf (fun s -> raise (Err s)) fmt

(* One pass over the text: s-expressions are built as the characters
   are read, with no list of token strings in between. *)

type cursor = { text : string; mutable pos : int }

let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* Skip blanks and comments (';' to the end of the line). *)
let rec skip c =
  let n = String.length c.text in
  if c.pos < n then
    let ch = c.text.[c.pos] in
    if is_blank ch then begin
      c.pos <- c.pos + 1;
      skip c
    end
    else if ch = ';' then begin
      while c.pos < n && c.text.[c.pos] <> '\n' do
        c.pos <- c.pos + 1
      done;
      skip c
    end

(* The end of the atom at [c.pos]. An SMT-LIB 2 string literal is one
   atom, quotes included; an embedded [""] escapes a quote character. *)
let atom_end c =
  let text = c.text and n = String.length c.text in
  if text.[c.pos] = '"' then begin
    let i = ref (c.pos + 1) in
    let closed = ref false in
    while (not !closed) && !i < n do
      if text.[!i] = '"' then
        if !i + 1 < n && text.[!i + 1] = '"' then i := !i + 2
        else begin
          closed := true;
          incr i
        end
      else incr i
    done;
    if not !closed then failf "unterminated string literal";
    !i
  end
  else begin
    let i = ref c.pos in
    while
      !i < n
      &&
      let d = text.[!i] in
      (not (is_blank d)) && d <> '(' && d <> ')' && d <> ';'
    do
      incr i
    done;
    !i
  end

(* The rest of the text, read as tokens and dropped: its only lexical
   error is an unterminated string, which a parse error must not hide. *)
let rec drain c =
  skip c;
  if c.pos < String.length c.text then begin
    (match c.text.[c.pos] with '(' | ')' -> c.pos <- c.pos + 1 | _ -> c.pos <- atom_end c);
    drain c
  end

let rec parse_one c =
  match c.text.[c.pos] with
  | '(' ->
    c.pos <- c.pos + 1;
    parse_items c []
  | ')' ->
    c.pos <- c.pos + 1;
    drain c;
    failf "unexpected ')'"
  | _ ->
    let start = c.pos in
    c.pos <- atom_end c;
    Atom (String.sub c.text start (c.pos - start))

and parse_items c items =
  skip c;
  if c.pos >= String.length c.text then failf "unclosed parenthesis"
  else if c.text.[c.pos] = ')' then begin
    c.pos <- c.pos + 1;
    List (List.rev items)
  end
  else
    let item = parse_one c in
    parse_items c (item :: items)

let parse_sexps text =
  let c = { text; pos = 0 } in
  let rec top acc =
    skip c;
    if c.pos >= String.length text then List.rev acc
    else
      let s = parse_one c in
      top (s :: acc)
  in
  match top [] with
  | sexps -> Ok sexps
  | exception Err msg -> Error msg

(* ------------------------------------------------------------------ *)

let rec numeric s i =
  i = String.length s
  || (match s.[i] with '0' .. '9' | '.' | '/' -> true | _ -> false) && numeric s (i + 1)

let is_number s =
  let first = if s <> "" && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
  first < String.length s && numeric s first

let rec term_of_sexp preds s =
  match s with
  | Atom a when is_number a -> Ast.T_const (Q.of_decimal_string a)
  | Atom a -> Ast.T_var a
  | List [ Atom "~"; t ] -> Ast.T_neg (term_of_sexp preds t)
  | List (Atom "+" :: ts) -> Ast.T_add (List.map (term_of_sexp preds) ts)
  | List [ Atom "-"; a; b ] -> Ast.T_sub (term_of_sexp preds a, term_of_sexp preds b)
  | List [ Atom "-"; a ] -> Ast.T_neg (term_of_sexp preds a)
  | List [ Atom "*"; a; b ] -> Ast.T_mul (term_of_sexp preds a, term_of_sexp preds b)
  | List (Atom "*" :: a :: rest) ->
    List.fold_left
      (fun acc t -> Ast.T_mul (acc, term_of_sexp preds t))
      (term_of_sexp preds a) rest
  | List [ Atom "/"; a; b ] -> Ast.T_div (term_of_sexp preds a, term_of_sexp preds b)
  | _ -> failf "unsupported term"

let rec formula_of_sexp preds s =
  match s with
  | Atom "true" -> Ast.F_true
  | Atom "false" -> Ast.F_false
  | Atom p -> Ast.F_pred p
  | List [ Atom p ] when List.mem p preds -> Ast.F_pred p
  | List (Atom "and" :: fs) -> Ast.F_and (List.map (formula_of_sexp preds) fs)
  | List (Atom "or" :: fs) -> Ast.F_or (List.map (formula_of_sexp preds) fs)
  | List [ Atom "not"; f ] -> Ast.F_not (formula_of_sexp preds f)
  | List [ Atom "implies"; a; b ] | List [ Atom "=>"; a; b ] ->
    Ast.F_implies (formula_of_sexp preds a, formula_of_sexp preds b)
  | List [ Atom "iff"; a; b ] | List [ Atom "<=>"; a; b ] ->
    Ast.F_iff (formula_of_sexp preds a, formula_of_sexp preds b)
  | List [ Atom "xor"; a; b ] ->
    Ast.F_xor (formula_of_sexp preds a, formula_of_sexp preds b)
  | List [ Atom "<"; a; b ] -> cmp preds Ast.Lt a b
  | List [ Atom "<="; a; b ] -> cmp preds Ast.Le a b
  | List [ Atom ">"; a; b ] -> cmp preds Ast.Gt a b
  | List [ Atom ">="; a; b ] -> cmp preds Ast.Ge a b
  | List [ Atom "="; a; b ] -> cmp preds Ast.Eq a b
  | List _ -> failf "unsupported formula"

and cmp preds c a b = Ast.F_cmp (c, term_of_sexp preds a, term_of_sexp preds b)

let parse_benchmark text =
  match
    match parse_sexps text with
    | Error e -> raise (Err e)
    | Ok [ List (Atom "benchmark" :: Atom name :: attrs) ] ->
      let logic = ref "unknown" in
      let status = ref `Unknown in
      let extrafuns = ref [] in
      let extrapreds = ref [] in
      let assumptions = ref [] in
      let formula = ref None in
      let rec eat = function
        | [] -> ()
        | Atom ":logic" :: Atom l :: rest ->
          logic := l;
          eat rest
        | Atom ":status" :: Atom s :: rest ->
          status :=
            (match s with "sat" -> `Sat | "unsat" -> `Unsat | _ -> `Unknown);
          eat rest
        | Atom ":extrafuns" :: List decls :: rest ->
          List.iter
            (fun d ->
              match d with
              | List [ Atom n; Atom srt ] ->
                let sort =
                  match srt with
                  | "Real" -> Ast.S_real
                  | "Int" -> Ast.S_int
                  | "Bool" -> Ast.S_bool
                  | _ -> failf "unknown sort %s" srt
                in
                extrafuns := (n, sort) :: !extrafuns
              | _ -> failf "malformed extrafuns entry")
            decls;
          eat rest
        | Atom ":extrapreds" :: List decls :: rest ->
          List.iter
            (fun d ->
              match d with
              | List [ Atom n ] -> extrapreds := n :: !extrapreds
              | Atom n -> extrapreds := n :: !extrapreds
              | _ -> failf "malformed extrapreds entry")
            decls;
          eat rest
        | Atom ":assumption" :: f :: rest ->
          assumptions := formula_of_sexp !extrapreds f :: !assumptions;
          eat rest
        | Atom ":formula" :: f :: rest ->
          formula := Some (formula_of_sexp !extrapreds f);
          eat rest
        | Atom ":source" :: _ :: rest | Atom ":notes" :: _ :: rest -> eat rest
        | Atom a :: _ -> failf "unknown attribute %s" a
        | List _ :: _ -> failf "unexpected list at attribute position"
      in
      eat attrs;
      (match !formula with
      | None -> failf "benchmark has no :formula"
      | Some f ->
        {
          Ast.name;
          logic = !logic;
          extrafuns = List.rev !extrafuns;
          extrapreds = List.rev !extrapreds;
          status = !status;
          assumptions = List.rev !assumptions;
          formula = f;
        })
    | Ok _ -> failf "expected a single (benchmark ...) form"
  with
  | b -> Ok b
  | exception Err msg -> Error msg

let parse_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let n = in_channel_length ic in
    let content = really_input_string ic n in
    close_in ic;
    parse_benchmark content
