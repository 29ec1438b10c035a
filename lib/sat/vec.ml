type 'a t = { mutable data : 'a array; mutable size : int; dummy : 'a }

let create ?(capacity = 16) ~dummy () =
  { data = Array.make (max capacity 1) dummy; size = 0; dummy }

let size v = v.size

let grow v =
  let data = Array.make (2 * Array.length v.data) v.dummy in
  Array.blit v.data 0 data 0 v.size;
  v.data <- data

let push v x =
  if v.size = Array.length v.data then grow v;
  v.data.(v.size) <- x;
  v.size <- v.size + 1

let pop v =
  assert (v.size > 0);
  v.size <- v.size - 1;
  let x = v.data.(v.size) in
  v.data.(v.size) <- v.dummy;
  x

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.size - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc
