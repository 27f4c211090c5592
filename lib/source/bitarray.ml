(* Bit [i] lives in byte [i lsr 3] at weight [1 lsl (i land 7)]. Every
   function that writes whole bytes keeps the padding bits of the last byte
   at zero, which [equal], [compare] and hashing rely on. *)
type t = { len : int; data : Bytes.t }

let bytes_for len = (len + 7) lsr 3

let create len =
  if len < 0 then invalid_arg "Bitarray.create";
  { len; data = Bytes.make (bytes_for len) '\000' }

let length t = t.len

(* [get] and [set] test their bounds inline: they run once per queried bit,
   and a call to a shared check costs more than the read itself. *)
let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitarray: index out of bounds";
  Char.code (Bytes.unsafe_get t.data (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i b =
  if i < 0 || i >= t.len then invalid_arg "Bitarray: index out of bounds";
  let j = i lsr 3 in
  let byte = Char.code (Bytes.unsafe_get t.data j) in
  let mask = 1 lsl (i land 7) in
  let byte = if b then byte lor mask else byte land lnot mask in
  Bytes.unsafe_set t.data j (Char.unsafe_chr byte)

let copy t = { len = t.len; data = Bytes.copy t.data }
let equal a b = a.len = b.len && Bytes.equal a.data b.data

let compare a b =
  let c = Int.compare a.len b.len in
  if c <> 0 then c else Bytes.compare a.data b.data

(* Packs the results of [f] eight to a byte store; [f] still sees every
   index once, in ascending order. *)
let init len f =
  let t = create len in
  for b = 0 to Bytes.length t.data - 1 do
    let base = b lsl 3 in
    let acc = ref 0 in
    for q = 0 to Int.min 8 (len - base) - 1 do
      if f (base + q) then acc := !acc lor (1 lsl q)
    done;
    Bytes.unsafe_set t.data b (Char.unsafe_chr !acc)
  done;
  t

let random prng len = init len (fun _ -> Dr_engine.Prng.bool prng)

let of_string s =
  init (String.length s) (fun i ->
      match s.[i] with
      | '0' -> false
      | '1' -> true
      | _ -> invalid_arg "Bitarray.of_string: expected only '0'/'1'")

let to_string t = String.init t.len (fun i -> if get t i then '1' else '0')

(* Byte [j] of [data], or 0 outside it: the window below reads one byte
   before and one after the bytes it copies. *)
let byte_at data j =
  if j >= 0 && j < Bytes.length data then Char.code (Bytes.unsafe_get data j) else 0

(* Copy bits [src_pos, src_pos + len) of [src] over bits [dst_pos, dst_pos + len)
   of [dst], one destination byte at a time: an 8-bit window of [src] aligned
   to the destination byte, merged under the mask of the bits in range. Bits
   of [dst] outside the range, its padding included, are left as they were. *)
let blit_bits ~src ~src_pos ~dst ~dst_pos ~len =
  if len > 0 then begin
    let first = dst_pos lsr 3 and last = (dst_pos + len - 1) lsr 3 in
    (* the bit of [src] that lands on bit 0 of byte [first]; may be negative *)
    let off = src_pos - (dst_pos land 7) in
    let j0 = off asr 3 and r = off land 7 in
    let stop = dst_pos + len - (last lsl 3) in
    for b = first to last do
      let j = j0 + b - first in
      let w = (byte_at src.data j lsr r) lor (byte_at src.data (j + 1) lsl (8 - r)) in
      let lo = if b = first then dst_pos land 7 else 0 in
      let hi = if b = last then stop else 8 in
      let mask = ((1 lsl (hi - lo)) - 1) lsl lo in
      let old = Char.code (Bytes.unsafe_get dst.data b) in
      Bytes.unsafe_set dst.data b (Char.unsafe_chr ((old land lnot mask) lor (w land mask)))
    done
  end

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Bitarray.sub";
  let r = create len in
  blit_bits ~src:t ~src_pos:pos ~dst:r ~dst_pos:0 ~len;
  r

let blit ~src ~dst ~pos =
  if pos < 0 || pos + src.len > dst.len then invalid_arg "Bitarray.blit";
  blit_bits ~src ~src_pos:0 ~dst ~dst_pos:pos ~len:src.len

let append a b =
  let t = create (a.len + b.len) in
  blit ~src:a ~dst:t ~pos:0;
  blit ~src:b ~dst:t ~pos:a.len;
  t

let first_diff a b =
  if a.len <> b.len then invalid_arg "Bitarray.first_diff: length mismatch";
  let rec lowest_bit x q = if x land 1 = 1 then q else lowest_bit (x lsr 1) (q + 1) in
  let rec byte_scan i =
    if i >= Bytes.length a.data then None
    else
      let x = Char.code (Bytes.unsafe_get a.data i) lxor Char.code (Bytes.unsafe_get b.data i) in
      (* padding is zero on both sides, so a set bit of [x] is a real index *)
      if x <> 0 then Some ((i lsl 3) + lowest_bit x 0) else byte_scan (i + 1)
  in
  byte_scan 0

let popcount_byte = Array.init 256 (fun b ->
    let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
    go b 0)

let count_ones t =
  let acc = ref 0 in
  for i = 0 to Bytes.length t.data - 1 do
    acc := !acc + popcount_byte.(Char.code (Bytes.get t.data i))
  done;
  !acc

let diff_count a b =
  if a.len <> b.len then invalid_arg "Bitarray.diff_count: length mismatch";
  let acc = ref 0 in
  for i = 0 to Bytes.length a.data - 1 do
    let x = Char.code (Bytes.get a.data i) lxor Char.code (Bytes.get b.data i) in
    acc := !acc + popcount_byte.(x)
  done;
  !acc

let flip t i =
  let t' = copy t in
  set t' i (not (get t' i));
  t'

let pp ppf t =
  if t.len <= 64 then Format.pp_print_string ppf (to_string t)
  else Format.fprintf ppf "%s… (%d bits)" (to_string (sub t ~pos:0 ~len:64)) t.len
