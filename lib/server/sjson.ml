type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Err of string

let failf fmt = Printf.ksprintf (fun s -> raise (Err s)) fmt

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* Adversarial-input bounds: a parse may nest at most [max_depth]
   containers (deeper input would otherwise overflow the OCaml stack
   long before memory runs out) and allocate at most [max_nodes] values
   across the whole document (caps object field and array item counts
   without a per-container knob).  Both limits reject with a byte
   offset, like every other diagnostic here. *)
let max_depth = 512
let max_nodes = 1_000_000

type cursor = { text : string; mutable pos : int; mutable nodes : int }

(* The byte at the cursor, or ['\000'] past the end (which no
   structural character matches). *)
let at_end c = c.pos >= String.length c.text
let cur c = if at_end c then '\000' else String.unsafe_get c.text c.pos

let skip_ws c =
  while
    c.pos < String.length c.text
    &&
    match c.text.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  if at_end c then failf "expected '%c', got end of input" ch
  else if cur c = ch then c.pos <- c.pos + 1
  else failf "expected '%c', got '%c' at %d" ch (cur c) c.pos

let literal c word v =
  let n = String.length word in
  let rec same i = i = n || (c.text.[c.pos + i] = word.[i] && same (i + 1)) in
  if c.pos + n <= String.length c.text && same 0 then begin
    c.pos <- c.pos + n;
    v
  end
  else failf "invalid literal at %d" c.pos

let utf8_encode b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex_digit ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> -1

(* The four hex digits after [\u] as a code point; [-1] if any is not
   one. *)
let hex4 text i =
  let rec go k acc =
    if k = 4 then acc
    else
      let d = hex_digit text.[i + k] in
      if d < 0 then -1 else go (k + 1) ((acc * 16) + d)
  in
  go 0 0

(* The run of plain bytes from [i]: up to the next quote or backslash. *)
let rec plain_run text i =
  if i < String.length text && text.[i] <> '"' && text.[i] <> '\\' then plain_run text (i + 1)
  else i

(* A string body, from just after its opening quote. Plain runs are
   copied whole: a body without escapes is one [String.sub]. *)
let parse_string_body c =
  let started = c.pos - 1 in
  let text = c.text in
  let first = plain_run text c.pos in
  if first < String.length text && text.[first] = '"' then begin
    let s = String.sub text c.pos (first - c.pos) in
    c.pos <- first + 1;
    s
  end
  else begin
    let b = Buffer.create (first - c.pos + 16) in
    let fin = ref false in
    while not !fin do
      let j = plain_run text c.pos in
      Buffer.add_substring b text c.pos (j - c.pos);
      c.pos <- j;
      if at_end c then failf "unterminated string (opened at byte %d)" started
      else if cur c = '"' then begin
        c.pos <- c.pos + 1;
        fin := true
      end
      else begin
        (* a backslash *)
        c.pos <- c.pos + 1;
        if at_end c then failf "unterminated escape (string opened at byte %d)" started;
        let e = cur c in
        c.pos <- c.pos + 1;
        match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          if c.pos + 4 > String.length text then failf "truncated \\u escape";
          let code = hex4 text c.pos in
          if code < 0 then
            (* A quote or backslash among the four digits ends the escape
               early: name it rather than quoting past the string's end. *)
            if plain_run text c.pos < c.pos + 4 then
              failf "short \\u escape at %d" (c.pos - 2)
            else failf "invalid \\u escape %s" (String.sub text c.pos 4);
          c.pos <- c.pos + 4;
          utf8_encode b code
        | e -> failf "invalid escape \\%c" e
      end
    done;
    Buffer.contents b
  end

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    (ch >= '0' && ch <= '9')
    || ch = '-' || ch = '+' || ch = '.' || ch = 'e' || ch = 'E'
  in
  while
    c.pos < String.length c.text && is_num_char c.text.[c.pos]
  do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.text start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> failf "invalid number %s" s

let rec parse_value depth c =
  c.nodes <- c.nodes + 1;
  if c.nodes > max_nodes then
    failf "document too large (over %d values) at byte %d" max_nodes c.pos;
  if depth > max_depth then
    failf "nesting deeper than %d at byte %d" max_depth c.pos;
  skip_ws c;
  if at_end c then failf "unexpected end of input";
  match cur c with
  | '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if cur c = '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let fields = ref [] in
      let fin = ref false in
      while not !fin do
        skip_ws c;
        expect c '"';
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value (depth + 1) c in
        fields := (k, v) :: !fields;
        skip_ws c;
        match cur c with
        | ',' -> c.pos <- c.pos + 1
        | '}' ->
          c.pos <- c.pos + 1;
          fin := true
        | _ -> failf "expected ',' or '}' at %d" c.pos
      done;
      Obj (List.rev !fields)
    end
  | '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if cur c = ']' then begin
      c.pos <- c.pos + 1;
      Arr []
    end
    else begin
      let items = ref [] in
      let fin = ref false in
      while not !fin do
        let v = parse_value (depth + 1) c in
        items := v :: !items;
        skip_ws c;
        match cur c with
        | ',' -> c.pos <- c.pos + 1
        | ']' ->
          c.pos <- c.pos + 1;
          fin := true
        | _ -> failf "expected ',' or ']' at %d" c.pos
      done;
      Arr (List.rev !items)
    end
  | '"' ->
    c.pos <- c.pos + 1;
    Str (parse_string_body c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> failf "unexpected character '%c' at %d" ch c.pos

let parse text =
  match
    let c = { text; pos = 0; nodes = 0 } in
    let v = parse_value 0 c in
    skip_ws c;
    if c.pos <> String.length text then failf "trailing input at %d" c.pos;
    v
  with
  | v -> Ok v
  | exception Err msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.9g" f
  else "null"

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num f -> num_to_string f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr items -> "[" ^ String.concat "," (List.map to_string items) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ to_string v) fields)
    ^ "}"

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let get_string = function Str s -> Some s | _ -> None

let get_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let get_bool = function Bool b -> Some b | _ -> None
