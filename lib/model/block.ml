module Q = Absolver_numeric.Rational

type comparison = C_lt | C_le | C_gt | C_ge | C_eq

let comparison_to_string = function
  | C_lt -> "<"
  | C_le -> "<="
  | C_gt -> ">"
  | C_ge -> ">="
  | C_eq -> "="

let comparison_of_string = function
  | "<" -> Some C_lt
  | "<=" -> Some C_le
  | ">" -> Some C_gt
  | ">=" -> Some C_ge
  | "=" | "==" -> Some C_eq
  | _ -> None

type math_fn = M_sqrt | M_exp | M_log | M_sin | M_cos

let math_fn_to_string = function
  | M_sqrt -> "sqrt"
  | M_exp -> "exp"
  | M_log -> "log"
  | M_sin -> "sin"
  | M_cos -> "cos"

let math_fn_of_string = function
  | "sqrt" -> Some M_sqrt
  | "exp" -> Some M_exp
  | "log" -> Some M_log
  | "sin" -> Some M_sin
  | "cos" -> Some M_cos
  | _ -> None

type t =
  | B_inport of { name : string; lo : Q.t option; hi : Q.t option; integer : bool }
  | B_const of Q.t
  | B_add
  | B_sub
  | B_mul
  | B_div
  | B_gain of Q.t
  | B_sum of int
  | B_math of math_fn
  | B_pow of int
  | B_compare of comparison * Q.t
  | B_relop of comparison
  | B_and of int
  | B_or of int
  | B_not
  | B_outport of string
  | B_delay of Q.t

let arity = function
  | B_delay _ -> 1
  | B_inport _ | B_const _ -> 0
  | B_gain _ | B_math _ | B_pow _ | B_compare _ | B_not | B_outport _ -> 1
  | B_add | B_sub | B_mul | B_div | B_relop _ -> 2
  | B_sum n | B_and n | B_or n -> n

let is_boolean_output = function
  | B_compare _ | B_relop _ | B_and _ | B_or _ | B_not | B_outport _ -> true
  | B_inport _ | B_const _ | B_add | B_sub | B_mul | B_div | B_gain _ | B_sum _
  | B_math _ | B_pow _ | B_delay _ ->
    false

let name = function
  | B_inport _ -> "Inport"
  | B_const _ -> "Const"
  | B_add -> "Add"
  | B_sub -> "Sub"
  | B_mul -> "Mul"
  | B_div -> "Div"
  | B_gain _ -> "Gain"
  | B_sum _ -> "Sum"
  | B_math _ -> "Math"
  | B_pow _ -> "Pow"
  | B_compare _ -> "Compare"
  | B_relop _ -> "Relop"
  | B_and _ -> "And"
  | B_or _ -> "Or"
  | B_not -> "Not"
  | B_outport _ -> "Outport"
  | B_delay _ -> "Delay"

let pp fmt b =
  match b with
  | B_inport { name; lo; hi; integer } ->
    let s = function None -> "_" | Some q -> Q.to_string q in
    Format.fprintf fmt "Inport %s [%s, %s]%s" name (s lo) (s hi)
      (if integer then " int" else "")
  | B_const q -> Format.fprintf fmt "Const %a" Q.pp q
  | B_gain q -> Format.fprintf fmt "Gain %a" Q.pp q
  | B_sum n -> Format.fprintf fmt "Sum %d" n
  | B_math f -> Format.fprintf fmt "Math %s" (math_fn_to_string f)
  | B_pow n -> Format.fprintf fmt "Pow %d" n
  | B_compare (c, q) -> Format.fprintf fmt "Compare %s %a" (comparison_to_string c) Q.pp q
  | B_relop c -> Format.fprintf fmt "Relop %s" (comparison_to_string c)
  | B_and n -> Format.fprintf fmt "And %d" n
  | B_or n -> Format.fprintf fmt "Or %d" n
  | B_outport s -> Format.fprintf fmt "Outport %s" s
  | B_delay q -> Format.fprintf fmt "Delay %a" Q.pp q
  | B_add | B_sub | B_mul | B_div | B_not ->
    Format.pp_print_string fmt (name b)
