module I = Absolver_numeric.Interval

type t = I.t array

let create n = Array.make n I.entire

let of_bounds bounds n =
  let b = create n in
  List.iter (fun (v, i) -> b.(v) <- i) bounds;
  b

let copy = Array.copy
let get b v = b.(v)
let set b v i = b.(v) <- i
let is_empty b = Array.exists I.is_empty b
let max_width b = Array.fold_left (fun acc i -> Float.max acc (I.width i)) 0.0 b

let widest_var b =
  if Array.length b = 0 then invalid_arg "Box.widest_var: empty box";
  let best = ref 0 and best_w = ref (-1.0) in
  Array.iteri
    (fun v i ->
      let w = I.width i in
      (* Prefer finite-width candidates; infinite intervals still win over
         point intervals so the solver can split them around zero. *)
      let score = if Float.is_finite w then w else Float.max_float in
      if score > !best_w && w > 0.0 then begin
        best := v;
        best_w := score
      end)
    b;
  !best

let midpoint b = Array.map I.mid b
let env b v = b.(v)
let point_env p v = I.of_float p.(v)

let pp fmt b =
  Format.fprintf fmt "{";
  Array.iteri (fun v i -> Format.fprintf fmt " x%d:%a" v I.pp i) b;
  Format.fprintf fmt " }"

let equal a b = Array.length a = Array.length b && Array.for_all2 I.equal a b
