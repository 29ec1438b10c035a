(* Sign-magnitude big integers.  The magnitude is a little-endian array of
   limbs in base 2^30 with no trailing zero limb; zero is represented by
   [sign = 0] and an empty magnitude.  Base 2^30 keeps every intermediate
   product of the schoolbook routines below 2^62, safely inside OCaml's
   63-bit native integers. *)

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let n = Array.length mag in
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let hi = top (n - 1) in
  if hi < 0 then zero
  else if hi = n - 1 then { sign; mag }
  else { sign; mag = Array.sub mag 0 (hi + 1) }

let of_small n =
  (* Any native int except [min_int] (whose magnitude cannot be negated). *)
  if n = 0 then zero
  else
    let s = if n < 0 then -1 else 1 in
    let a = abs n in
    if a < base then { sign = s; mag = [| a |] }
    else if a lsr (2 * base_bits) = 0 then
      { sign = s; mag = [| a land mask; a lsr base_bits |] }
    else
      {
        sign = s;
        mag = [| a land mask; (a lsr base_bits) land mask; a lsr (2 * base_bits) |];
      }

let one = of_small 1
let two = of_small 2
let minus_one = of_small (-1)
let ten = of_small 10
let sign t = t.sign
let is_zero t = t.sign = 0
let is_one t = t.sign = 1 && Array.length t.mag = 1 && t.mag.(0) = 1
let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

(* Native fast path: a magnitude of at most two limbs (60 bits) round-trips
   exactly through a native int, and two such values add — and, with a bit
   check, multiply — without leaving OCaml's 63-bit range.  The arithmetic
   entry points below try this shape first and fall back to the limb
   routines; rationals normalize constantly, so in practice almost all of
   the solvers' bignum traffic stays on machine integers. *)
let small_opt t =
  match Array.length t.mag with
  | 0 -> Some 0
  | 1 -> Some (t.sign * t.mag.(0))
  | 2 -> Some (t.sign * ((t.mag.(1) lsl base_bits) lor t.mag.(0)))
  | _ -> None

(* Magnitude comparison: -1, 0, 1. *)
let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec loop i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else loop (i - 1)
    in
    loop (la - 1)

let compare x y =
  if x.sign <> y.sign then compare x.sign y.sign
  else if x.sign >= 0 then compare_mag x.mag y.mag
  else compare_mag y.mag x.mag

let compare x y =
  match (small_opt x, small_opt y) with
  | Some a, Some b -> Int.compare a b
  | _ -> compare x y

let equal x y = compare x y = 0
let min x y = if compare x y <= 0 then x else y
let max x y = if compare x y >= 0 then x else y

let hash t =
  Array.fold_left (fun acc limb -> (acc * 65599) + limb) (t.sign + 7) t.mag

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = Stdlib.max la lb + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let da = if i < la then a.(i) else 0 in
    let db = if i < lb then b.(i) else 0 in
    let t = da + db + !carry in
    r.(i) <- t land mask;
    carry := t lsr base_bits
  done;
  r.(lr - 1) <- !carry;
  r

(* Requires [compare_mag a b >= 0]. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let db = if i < lb then b.(i) else 0 in
    let t = a.(i) - db - !borrow in
    if t < 0 then begin
      r.(i) <- t + base;
      borrow := 1
    end
    else begin
      r.(i) <- t;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  r

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      if ai <> 0 then begin
        for j = 0 to lb - 1 do
          let t = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- t land mask;
          carry := t lsr base_bits
        done;
        r.(i + lb) <- r.(i + lb) + !carry
      end
    done;
    r
  end

let add x y =
  if x.sign = 0 then y
  else if y.sign = 0 then x
  else if x.sign = y.sign then normalize x.sign (add_mag x.mag y.mag)
  else
    match compare_mag x.mag y.mag with
    | 0 -> zero
    | c when c > 0 -> normalize x.sign (sub_mag x.mag y.mag)
    | _ -> normalize y.sign (sub_mag y.mag x.mag)

let mul x y =
  if x.sign = 0 || y.sign = 0 then zero
  else normalize (x.sign * y.sign) (mul_mag x.mag y.mag)

(* Divide a magnitude by a single limb; returns (quotient, remainder). *)
let divmod_mag_small a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

let shift_mag_left a s =
  (* 0 <= s < base_bits; result may gain one limb. *)
  if s = 0 then Array.copy a
  else
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let t = (a.(i) lsl s) lor !carry in
      r.(i) <- t land mask;
      carry := t lsr base_bits
    done;
    r.(la) <- !carry;
    r

let shift_mag_right a s =
  if s = 0 then Array.copy a
  else
    let la = Array.length a in
    let r = Array.make la 0 in
    let carry = ref 0 in
    for i = la - 1 downto 0 do
      let t = (!carry lsl base_bits) lor a.(i) in
      r.(i) <- t lsr s;
      carry := t land ((1 lsl s) - 1)
    done;
    r

let limb_bits x =
  let rec loop n v = if v = 0 then n else loop (n + 1) (v lsr 1) in
  loop 0 x

(* Knuth algorithm D on magnitudes.  Requires [compare_mag u v >= 0] and
   [Array.length v >= 2].  Returns (quotient, remainder) magnitudes. *)
let divmod_mag_knuth u v =
  let n = Array.length v in
  let s = base_bits - limb_bits v.(n - 1) in
  let vn = shift_mag_left v s in
  let vn = if vn.(Array.length vn - 1) = 0 then Array.sub vn 0 n else vn in
  let un = shift_mag_left u s in
  let un =
    (* Ensure un has exactly (m + n + 1) limbs with a top slot available. *)
    let lu = Array.length u in
    if Array.length un = lu then Array.append un [| 0 |] else un
  in
  let m = Array.length un - 1 - n in
  let q = Array.make (m + 1) 0 in
  let v1 = vn.(n - 1) in
  let v2 = vn.(n - 2) in
  for j = m downto 0 do
    let top = (un.(j + n) lsl base_bits) lor un.(j + n - 1) in
    let qhat = ref (top / v1) in
    let rhat = ref (top mod v1) in
    (* Once rhat >= base the test qhat * v2 > rhat * base + ... is
       necessarily false (qhat * v2 < base^2), so the adjustment stops. *)
    let continue_adjust = ref true in
    while
      !continue_adjust
      && (!qhat >= base
         || !qhat * v2 > (!rhat lsl base_bits) lor un.(j + n - 2))
    do
      decr qhat;
      rhat := !rhat + v1;
      if !rhat >= base then continue_adjust := false
    done;
    (* Multiply-subtract qhat * vn from un[j .. j+n]. *)
    let borrow = ref 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !carry in
      carry := p lsr base_bits;
      let t = un.(i + j) - (p land mask) - !borrow in
      if t < 0 then begin
        un.(i + j) <- t + base;
        borrow := 1
      end
      else begin
        un.(i + j) <- t;
        borrow := 0
      end
    done;
    let t = un.(j + n) - !carry - !borrow in
    if t < 0 then begin
      (* qhat was one too large: add back. *)
      un.(j + n) <- t + base;
      decr qhat;
      let carry2 = ref 0 in
      for i = 0 to n - 1 do
        let t2 = un.(i + j) + vn.(i) + !carry2 in
        un.(i + j) <- t2 land mask;
        carry2 := t2 lsr base_bits
      done;
      un.(j + n) <- (un.(j + n) + !carry2) land mask
    end
    else un.(j + n) <- t;
    q.(j) <- !qhat
  done;
  let r = shift_mag_right (Array.sub un 0 n) s in
  (q, r)

let divmod x y =
  if y.sign = 0 then raise Division_by_zero
  else if x.sign = 0 then (zero, zero)
  else if compare_mag x.mag y.mag < 0 then (zero, x)
  else
    let qmag, rmag =
      if Array.length y.mag = 1 then
        let q, r = divmod_mag_small x.mag y.mag.(0) in
        (q, if r = 0 then [||] else [| r |])
      else divmod_mag_knuth x.mag y.mag
    in
    let q = normalize (x.sign * y.sign) qmag in
    let r = normalize x.sign rmag in
    (q, r)

let rec gcd x y =
  let x = abs x and y = abs y in
  if is_zero y then x else gcd y (snd (divmod x y))

(* Machine-arithmetic shadows of the hot entry points (see [small_opt]).
   Two 60-bit operands sum below 2^61; a product is native-safe when the
   factors' combined bit length is at most 62; native [/] and [mod]
   truncate toward zero, exactly the sign-magnitude semantics above. *)
let add x y =
  match (small_opt x, small_opt y) with
  | Some a, Some b -> of_small (a + b)
  | _ -> add x y

let sub x y = add x (neg y)

let mul x y =
  match (small_opt x, small_opt y) with
  | Some a, Some b
    when limb_bits (Stdlib.abs a) + limb_bits (Stdlib.abs b) <= 62 ->
    of_small (a * b)
  | _ -> mul x y

let divmod x y =
  match (small_opt x, small_opt y) with
  | Some a, Some b ->
    if b = 0 then raise Division_by_zero
    else (of_small (a / b), of_small (a mod b))
  | _ -> divmod x y

let div x y = fst (divmod x y)
let rem x y = snd (divmod x y)

let gcd x y =
  match (small_opt x, small_opt y) with
  | Some a, Some b ->
    let rec go a b = if b = 0 then a else go b (a mod b) in
    of_small (go (Stdlib.abs a) (Stdlib.abs b))
  | _ -> gcd x y

(* [of_small] requires a negatable argument; [min_int] cannot be negated,
   so decompose it as h * base + low first. *)
let of_int n =
  if n = min_int then
    let h = n / base and low = n mod base in
    add (mul (of_small h) (of_small base)) (of_small low)
  else of_small n

let mul_int x n = mul x (of_int n)

let to_float t =
  let f =
    Array.fold_right
      (fun limb acc -> (acc *. 1073741824.0) +. float_of_int limb)
      t.mag 0.0
  in
  if t.sign < 0 then -.f else f

let num_bits t =
  let n = Array.length t.mag in
  if n = 0 then 0 else ((n - 1) * base_bits) + limb_bits t.mag.(n - 1)

let to_int_opt t =
  if num_bits t <= 62 then begin
    let v = Array.fold_right (fun limb acc -> (acc lsl base_bits) lor limb) t.mag 0 in
    if v < 0 then None else Some (if t.sign < 0 then -v else v)
  end
  else None

let to_int t =
  match to_int_opt t with
  | Some v -> v
  | None -> failwith "Bigint.to_int: value does not fit in a native int"

let shift_left t n =
  if n < 0 then invalid_arg "Bigint.shift_left: negative shift"
  else if t.sign = 0 || n = 0 then t
  else
    let limbs = n / base_bits and bits = n mod base_bits in
    let shifted = shift_mag_left t.mag bits in
    let mag = Array.append (Array.make limbs 0) shifted in
    normalize t.sign mag

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent"
  else
    let rec go acc b e =
      if e = 0 then acc
      else
        let acc = if e land 1 = 1 then mul acc b else acc in
        go acc (mul b b) (e lsr 1)
    in
    go one b e

let succ t = add t one
let pred t = sub t one

(* Decimal I/O works in chunks of 9 digits (10^9 < 2^30). *)
let chunk = 1_000_000_000
let chunk_digits = 9

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let neg_sign, start =
    match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let cur = ref 0 and cur_digits = ref 0 in
  let flush () =
    if !cur_digits > 0 then begin
      let scale = pow ten !cur_digits in
      acc := add (mul !acc scale) (of_small !cur);
      cur := 0;
      cur_digits := 0
    end
  in
  let saw_digit = ref false in
  String.iteri
    (fun i c ->
      if i >= start then
        match c with
        | '0' .. '9' ->
          saw_digit := true;
          cur := (!cur * 10) + (Char.code c - Char.code '0');
          incr cur_digits;
          if !cur_digits = chunk_digits then flush ()
        | '_' -> ()
        | _ -> invalid_arg "Bigint.of_string: invalid character")
    s;
  if not !saw_digit then invalid_arg "Bigint.of_string: no digits";
  flush ();
  if neg_sign then neg !acc else !acc

let of_string_opt s = try Some (of_string s) with Invalid_argument _ -> None

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec loop mag acc =
      if Array.length mag = 0 then acc
      else
        let q, r = divmod_mag_small mag chunk in
        let q = (normalize 1 q).mag in
        loop q (r :: acc)
    in
    let chunks = loop t.mag [] in
    if t.sign < 0 then Buffer.add_char buf '-';
    (match chunks with
    | [] -> Buffer.add_char buf '0'
    | first :: rest ->
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let pp fmt t = Format.pp_print_string fmt (to_string t)
