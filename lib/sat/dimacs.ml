type cnf = {
  num_vars : int;
  clauses : Types.lit list list;
  comments : string list;
}

(* ------------------------------------------------------------------ *)
(* One pass over the text: a cursor steps from line to line and the     *)
(* tokens of a line are read in place, by index.                       *)

type cursor = {
  text : string;
  mutable next : int;
  mutable line_no : int;
  mutable start : int;
  mutable stop : int;
}

let cursor text = { text; next = 0; line_no = 0; start = 0; stop = 0 }

(* The characters [String.trim] removes. *)
let is_space c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

let rec next_line cur =
  let text = cur.text in
  let n = String.length text in
  if cur.next > n then false
  else begin
    let s = ref cur.next in
    let e = ref cur.next in
    while !e < n && String.unsafe_get text !e <> '\n' do
      incr e
    done;
    cur.next <- !e + 1;
    cur.line_no <- cur.line_no + 1;
    while !s < !e && is_space (String.unsafe_get text !s) do
      incr s
    done;
    while !e > !s && is_space (String.unsafe_get text (!e - 1)) do
      decr e
    done;
    if !s = !e then next_line cur
    else begin
      cur.start <- !s;
      cur.stop <- !e;
      true
    end
  end

let rec skip_blanks text i stop =
  if i < stop && (text.[i] = ' ' || text.[i] = '\t') then skip_blanks text (i + 1) stop
  else i

let rec token_end text i stop =
  if i < stop && text.[i] <> ' ' && text.[i] <> '\t' then token_end text (i + 1) stop
  else i

let rec same text i word k =
  k = String.length word || (text.[i + k] = word.[k] && same text i word (k + 1))

let is_word text i j word = j - i = String.length word && same text i word 0

let has_prefix text i stop prefix =
  let n = String.length prefix in
  stop - i >= n && is_word text i (i + n) prefix

let rec digits text i j acc =
  if i = j then acc
  else
    match text.[i] with
    | '0' .. '9' as c -> digits text (i + 1) j ((acc * 10) + Char.code c - Char.code '0')
    | _ -> -1

let decimal_digits text i j = if i < j && j - i <= 18 then digits text i j 0 else -1

exception Not_int

let int_token text i j =
  let d0 = if i < j && text.[i] = '-' then i + 1 else i in
  let v = decimal_digits text d0 j in
  if v < 0 then raise Not_int else if d0 > i then -v else v

let problem_line cur =
  let text = cur.text and stop = cur.stop in
  let p_end = token_end text cur.start stop in
  let f0 = skip_blanks text p_end stop in
  let f1 = token_end text f0 stop in
  let v0 = skip_blanks text f1 stop in
  let v1 = token_end text v0 stop in
  let c0 = skip_blanks text v1 stop in
  let c1 = token_end text c0 stop in
  if
    is_word text cur.start p_end "p"
    && is_word text f0 f1 "cnf"
    && v0 < v1 && c0 < c1
    && skip_blanks text c1 stop = stop
  then Some ((v0, v1), (c0, c1))
  else None

let read_ints cur ~int ~bad =
  let text = cur.text and stop = cur.stop in
  let i = ref cur.start in
  while !i < stop do
    let j = token_end text !i stop in
    (match int_token text !i j with
    | v -> int v
    | exception Not_int -> bad (String.sub text !i (j - !i)));
    i := skip_blanks text j stop
  done

(* ------------------------------------------------------------------ *)

let parse_string text =
  let num_vars = ref 0 in
  let clauses = ref [] in
  let comments = ref [] in
  let current = ref [] in
  let error = ref None in
  let set_error msg = if !error = None then error := Some msg in
  let cur = cursor text in
  let int n =
    if n = 0 then begin
      clauses := List.rev !current :: !clauses;
      current := []
    end
    else begin
      if abs n > !num_vars then num_vars := abs n;
      current := Types.of_dimacs n :: !current
    end
  in
  let bad tok = set_error (Printf.sprintf "line %d: bad literal %S" cur.line_no tok) in
  while next_line cur do
    let s = cur.start in
    match text.[s] with
    | 'c' ->
      let body = if cur.stop - s >= 2 && text.[s + 1] = ' ' then s + 2 else s + 1 in
      comments := String.sub text body (cur.stop - body) :: !comments
    | 'p' -> (
      let malformed () =
        set_error (Printf.sprintf "line %d: malformed problem line" cur.line_no)
      in
      match problem_line cur with
      | Some ((v0, v1), (c0, c1)) -> (
        match (int_token text v0 v1, int_token text c0 c1) with
        | v, _ -> num_vars := v
        | exception Not_int -> malformed ())
      | None -> malformed ())
    | _ -> read_ints cur ~int ~bad
  done;
  if !current <> [] then clauses := List.rev !current :: !clauses;
  match !error with
  | Some msg -> Error msg
  | None ->
    Ok { num_vars = !num_vars; clauses = List.rev !clauses; comments = List.rev !comments }

let parse_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let n = in_channel_length ic in
    let content = really_input_string ic n in
    close_in ic;
    parse_string content

let to_string cnf =
  let buf = Buffer.create 1024 in
  List.iter (fun c -> Buffer.add_string buf ("c " ^ c ^ "\n")) cnf.comments;
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" cnf.num_vars (List.length cnf.clauses));
  List.iter
    (fun clause ->
      List.iter
        (fun l -> Buffer.add_string buf (string_of_int (Types.to_dimacs l) ^ " "))
        clause;
      Buffer.add_string buf "0\n")
    cnf.clauses;
  Buffer.contents buf
