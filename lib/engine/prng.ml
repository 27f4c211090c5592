(* The four xoshiro256** state words s0..s3 live unboxed in one 32-byte
   buffer, at byte offsets 0, 8, 16 and 24. Every step reads and writes them
   through the int64 byte primitives, and the helpers below are inlined, so
   the int64 arithmetic stays in registers: no draw that returns an
   immediate allocates. *)
type t = Bytes.t

let[@inline] get g i = Bytes.get_int64_ne g (i * 8)
let[@inline] set g i v = Bytes.set_int64_ne g (i * 8) v
let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64's increment and output mix, used to expand a seed into the
   full xoshiro state. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] splitmix_mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] create seed =
  let g = Bytes.create 32 in
  let z1 = Int64.add seed golden_gamma in
  let z2 = Int64.add z1 golden_gamma in
  let z3 = Int64.add z2 golden_gamma in
  let z4 = Int64.add z3 golden_gamma in
  set g 0 (splitmix_mix z1);
  set g 1 (splitmix_mix z2);
  set g 2 (splitmix_mix z3);
  set g 3 (splitmix_mix z4);
  g

let[@inline] next64 g =
  let s0 = get g 0 and s1 = get g 1 and s2 = get g 2 and s3 = get g 3 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set g 0 (Int64.logxor s0 s3);
  set g 1 (Int64.logxor s1 s2);
  set g 2 (Int64.logxor s2 (Int64.shift_left s1 17));
  set g 3 (rotl s3 45);
  result

let split g = create (next64 g)

(* [Int64.unsigned_rem x d] for a positive [d], written out so that it is
   inlined. A negative [x] is 2^64 + x as an unsigned value: halve it
   (logical shift), divide, double the quotient, and the remainder left over
   is below 2d, so one conditional subtraction finishes it. *)
let[@inline] unsigned_rem_pos x d =
  if x >= 0L then Int64.rem x d
  else begin
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical x 1) d) 1 in
    let r = Int64.sub x (Int64.mul q d) in
    let r' = Int64.sub r d in
    if r' >= 0L then r' else r
  end

let int g bound =
  assert (bound > 0);
  Int64.to_int (unsigned_rem_pos (next64 g) (Int64.of_int bound))

let float g bound =
  let mantissa = Int64.shift_right_logical (next64 g) 11 in
  Int64.to_float mantissa *. (1.0 /. 9007199254740992.0) *. bound

let bool g = Int64.logand (next64 g) 1L = 1L

let bits g w =
  assert (w >= 0 && w <= 30);
  if w = 0 then 0
  else Int64.to_int (Int64.shift_right_logical (next64 g) (64 - w))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick g a =
  assert (Array.length a > 0);
  a.(int g (Array.length a))
