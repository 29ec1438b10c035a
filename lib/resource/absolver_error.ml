type resource = Steps | Memory

type t =
  | Timeout
  | Cancelled
  | Out_of_budget of resource
  | Internal of string

let to_string = function
  | Timeout -> "timeout"
  | Cancelled -> "cancelled"
  | Out_of_budget Steps -> "step budget exhausted"
  | Out_of_budget Memory -> "memory budget exhausted"
  | Internal why -> "internal: " ^ why

let code = function
  | Timeout -> "timeout"
  | Cancelled -> "cancelled"
  | Out_of_budget Steps -> "steps"
  | Out_of_budget Memory -> "memory"
  | Internal _ -> "internal"

let pp fmt e = Format.pp_print_string fmt (to_string e)
