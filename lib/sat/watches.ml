type t = { mutable lists : int array array; mutable sizes : int array }

let create n = { lists = Array.make n [||]; sizes = Array.make n 0 }

let grow w n =
  let old = Array.length w.lists in
  if n > old then begin
    let lists = Array.make n [||] and sizes = Array.make n 0 in
    Array.blit w.lists 0 lists 0 old;
    Array.blit w.sizes 0 sizes 0 old;
    w.lists <- lists;
    w.sizes <- sizes
  end

(* Give [l]'s list room for [cap] entries. *)
let realloc w l cap =
  let a = Array.make (2 * cap) 0 in
  Array.blit w.lists.(l) 0 a 0 (2 * w.sizes.(l));
  w.lists.(l) <- a

let push w l c b =
  let n = w.sizes.(l) in
  if 2 * n = Array.length w.lists.(l) then realloc w l (if n = 0 then 4 else 2 * n);
  let a = w.lists.(l) in
  a.(2 * n) <- c;
  a.((2 * n) + 1) <- b;
  w.sizes.(l) <- n + 1

let reserve w each =
  let sizes = w.sizes in
  each (fun l -> sizes.(l) <- sizes.(l) + 1);
  for l = 0 to Array.length sizes - 1 do
    let a = w.lists.(l) in
    let need = 2 * sizes.(l) in
    if need > Array.length a then begin
      let b = Array.make need 0 in
      Array.blit a 0 b 0 (Array.length a);
      w.lists.(l) <- b
    end
  done;
  each (fun l -> sizes.(l) <- sizes.(l) - 1)

let swap_remove w l i =
  let a = w.lists.(l) in
  let last = w.sizes.(l) - 1 in
  a.(2 * i) <- a.(2 * last);
  a.((2 * i) + 1) <- a.((2 * last) + 1);
  w.sizes.(l) <- last

let clear w = Array.fill w.sizes 0 (Array.length w.sizes) 0

let compact w l =
  let cap = Array.length w.lists.(l) / 2 in
  let n = w.sizes.(l) in
  if cap > 16 && n * 4 < cap then realloc w l (max 16 (2 * n))
