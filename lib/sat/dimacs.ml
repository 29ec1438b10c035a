type cnf = {
  num_vars : int;
  clauses : Types.lit list list;
  comments : string list;
}

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let num_vars = ref 0 in
  let declared_clauses = ref (-1) in
  let clauses = ref [] in
  let comments = ref [] in
  let current = ref [] in
  let error = ref None in
  let set_error msg = if !error = None then error := Some msg in
  let handle_line line_no line =
    let line = String.trim line in
    if line = "" then ()
    else if line.[0] = 'c' then begin
      let body =
        if String.length line >= 2 && line.[1] = ' ' then
          String.sub line 2 (String.length line - 2)
        else String.sub line 1 (String.length line - 1)
      in
      comments := body :: !comments
    end
    else if line.[0] = 'p' then begin
      match split_ws line with
      | [ "p"; "cnf"; v; c ] -> (
        match (int_of_string_opt v, int_of_string_opt c) with
        | Some v, Some c ->
          num_vars := v;
          declared_clauses := c
        | _ -> set_error (Printf.sprintf "line %d: malformed problem line" line_no))
      | _ -> set_error (Printf.sprintf "line %d: malformed problem line" line_no)
    end
    else
      List.iter
        (fun tok ->
          match int_of_string_opt tok with
          | None -> set_error (Printf.sprintf "line %d: bad literal %S" line_no tok)
          | Some 0 ->
            clauses := List.rev !current :: !clauses;
            current := []
          | Some n ->
            if abs n > !num_vars then num_vars := abs n;
            current := Types.of_dimacs n :: !current)
        (split_ws line)
  in
  List.iteri (fun i line -> handle_line (i + 1) line) lines;
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
