type t = True | False | Unknown

let of_bool b = if b then True else False
let not_ = function True -> False | False -> True | Unknown -> Unknown

let and_ a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, True -> True
  | True, Unknown | Unknown, True | Unknown, Unknown -> Unknown

let or_ a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, False -> False
  | False, Unknown | Unknown, False | Unknown, Unknown -> Unknown

let and_list l = List.fold_left and_ True l
let or_list l = List.fold_left or_ False l

let xor a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> Unknown
  | x, y -> of_bool (x <> y)

let iff a b = not_ (xor a b)
let implies a b = or_ (not_ a) b
let equal (a : t) b = a = b
let to_string = function True -> "tt" | False -> "ff" | Unknown -> "?"
let pp fmt t = Format.pp_print_string fmt (to_string t)
