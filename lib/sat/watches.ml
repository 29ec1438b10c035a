type 'c t = {
  mutable cl : 'c array;
  mutable bl : Types.Lit.t array;
  mutable n : int;
  dummy : 'c;
}

let create ~dummy () = { cl = [||]; bl = [||]; n = 0; dummy }

let realloc w cap =
  let cl = Array.make cap w.dummy in
  let bl = Array.make cap Types.Lit.undef in
  Array.blit w.cl 0 cl 0 w.n;
  Array.blit w.bl 0 bl 0 w.n;
  w.cl <- cl;
  w.bl <- bl

let push w c b =
  if w.n = Array.length w.cl then realloc w (if w.n = 0 then 4 else 2 * w.n);
  w.cl.(w.n) <- c;
  w.bl.(w.n) <- b;
  w.n <- w.n + 1

let swap_remove w i =
  let last = w.n - 1 in
  w.cl.(i) <- w.cl.(last);
  w.bl.(i) <- w.bl.(last);
  w.cl.(last) <- w.dummy;
  w.n <- last

let clear w =
  Array.fill w.cl 0 w.n w.dummy;
  w.n <- 0

let remove_clause w c =
  let i = ref 0 in
  while !i < w.n && w.cl.(!i) != c do
    incr i
  done;
  if !i < w.n then swap_remove w !i

let compact w =
  let cap = Array.length w.cl in
  if cap > 16 && w.n * 4 < cap then realloc w (max 16 (2 * w.n))
