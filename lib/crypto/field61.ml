(* Elements travel as [int64] at the interface but every computation runs
   on native ints: p = 2^61 - 1 < max_int = 2^62 - 1, and every partial
   product below stays under 2^62, so nothing is boxed until the result
   is returned. *)

let p_int = (1 lsl 61) - 1

let p = Int64.of_int p_int (* 2^61 - 1 *)

(* Arithmetic modulo [m] on native ints: [norm_int] takes any int64,
   [add_mod]/[sub_mod] take operands already in [0, m). *)
let[@inline] norm_int m x =
  let x = Int64.to_int (Int64.rem x (Int64.of_int m)) in
  if x < 0 then x + m else x

let[@inline] add_mod m a b =
  let s = a + b in
  if s >= m then s - m else s

let[@inline] sub_mod m a b = if a >= b then a - b else a - b + m

let[@inline] lift2 f a b = Int64.of_int (f (Int64.to_int a) (Int64.to_int b))

let norm x = Int64.of_int (norm_int p_int x)

let add_int a b = add_mod p_int a b

let sub_int a b = sub_mod p_int a b

let add a b = lift2 add_int a b

let sub a b = lift2 sub_int a b

(* Reduce a value < 2^62 using 2^61 = 1 (mod p): split into low 61 bits and
   the high remainder. *)
let[@inline] reduce x = add_int (x land p_int) (x lsr 61)

(* a * b mod p with a, b < 2^61. Split a = a1*2^31 + a0 (a1 < 2^30,
   a0 < 2^31):
     a*b = a1*b*2^31 + a0*b.
   Each partial product is itself reduced by splitting b. *)
let mul_int a b =
  let mask31 = 0x7fffffff in
  let a1 = a lsr 31 and a0 = a land mask31 in
  let b1 = b lsr 31 and b0 = b land mask31 in
  (* a1*b1 < 2^60; times 2^62 = 2 (mod p). *)
  let t_hh = reduce (a1 * b1) in
  let t_hh = add_int t_hh t_hh in
  (* mid = a1*b0 + a0*b1 < 2^62; mid * 2^31 (mod p): split mid into
     mid_hi*2^30 + mid_lo so mid*2^31 = mid_hi*2^61 + mid_lo*2^31
                                      = mid_hi + mid_lo*2^31 (mod p). *)
  let mid = (a1 * b0) + (a0 * b1) in
  let t_mid = add_int (reduce (mid lsr 30)) (reduce ((mid land 0x3fffffff) lsl 31)) in
  (* a0*b0 < 2^62. *)
  add_int (add_int t_hh t_mid) (reduce (a0 * b0))

let mul a b = lift2 mul_int a b

let rec pow_loop acc b e =
  if e = 0 then acc
  else pow_loop (if e land 1 = 1 then mul_int acc b else acc) (mul_int b b) (e lsr 1)

let rec square_n b n = if n = 0 then b else square_n (mul_int b b) (n - 1)

let pow b e =
  if Int64.compare e 0L < 0 then invalid_arg "Field61.pow: negative exponent";
  let b = norm_int p_int b in
  (* A non-negative int64 has 63 significant bits, one more than a
     non-negative native int: bits 0..61 run the square-and-multiply loop
     and bit 62 multiplies in b^(2^62) at the end. *)
  let low = Int64.to_int e land max_int in
  let acc = pow_loop 1 b low in
  let acc =
    if Int64.compare e (Int64.of_int max_int) > 0 then mul_int acc (square_n b 62) else acc
  in
  Int64.of_int acc

module Order = struct
  let n_int = p_int - 1

  let n = Int64.of_int n_int

  let norm x = Int64.of_int (norm_int n_int x)

  let add_int a b = add_mod n_int a b

  let sub_int a b = sub_mod n_int a b

  let add a b = lift2 add_int a b

  let sub a b = lift2 sub_int a b

  (* Multiplication mod (p - 1) via mod-p tricks is unsound; use the
     double-and-add ladder instead (log-time, overflow-free: every sum
     stays below 2 * n < 2^62). *)
  let rec ladder acc a b =
    if b = 0 then acc
    else
      ladder (if b land 1 = 1 then add_int acc a else acc) (add_int a a) (b lsr 1)

  let mul a b = Int64.of_int (ladder 0 (norm_int n_int a) (norm_int n_int b))
end

let of_bytes s =
  if String.length s < 8 then invalid_arg "Field61.of_bytes: need 8 bytes";
  norm (Int64.logand (String.get_int64_be s 0) Int64.max_int)
