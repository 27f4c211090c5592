(* Struct-of-arrays binary min-heap. Times live in a flat float array (flat
   unboxed representation), sequence numbers and values in parallel arrays:
   a push allocates nothing once capacity is there, where the previous
   entry-record layout allocated a record plus a boxed float per event. The
   (time, seq) order is unchanged, so executions are bit-identical. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; values = [||]; len = 0; next_seq = 0 }

(* Strict (time, seq) lexicographic order between slots [i] and [j]. *)
let[@inline] lt h i j =
  let ti = Array.unsafe_get h.times i and tj = Array.unsafe_get h.times j in
  ti < tj || (ti = tj && Array.unsafe_get h.seqs i < Array.unsafe_get h.seqs j)

(* [value] seeds fresh slots of the values array — it is about to be stored
   anyway, so no dummy element is ever needed. *)
let grow h value =
  let cap = Array.length h.values in
  if cap = 0 then begin
    h.times <- Array.make 16 0.;
    h.seqs <- Array.make 16 0;
    h.values <- Array.make 16 value
  end
  else begin
    let new_cap = 2 * cap in
    let times = Array.make new_cap 0. in
    Array.blit h.times 0 times 0 h.len;
    h.times <- times;
    let seqs = Array.make new_cap 0 in
    Array.blit h.seqs 0 seqs 0 h.len;
    h.seqs <- seqs;
    let values = Array.make new_cap value in
    Array.blit h.values 0 values 0 h.len;
    h.values <- values
  end

let[@inline] set h i ~time ~seq value =
  Array.unsafe_set h.times i time;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.values i value

(* Hole-based sifts: carry the moving element in registers and write each
   visited slot once, instead of swapping (which writes twice per level
   across all three arrays). Comparison order matches the classic swap
   formulation, so the resulting layout — and hence the pop order — is
   identical. *)

let sift_up h i ~time ~seq value =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get h.times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get h.seqs parent) then begin
      set h !i ~time:pt ~seq:(Array.unsafe_get h.seqs parent) (Array.unsafe_get h.values parent);
      i := parent
    end
    else continue := false
  done;
  set h !i ~time ~seq value

let sift_down h ~time ~seq value =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 in
    if left >= h.len then continue := false
    else begin
      let right = left + 1 in
      (* Index of the smaller child. *)
      let c = if right < h.len && lt h right left then right else left in
      let ct = Array.unsafe_get h.times c in
      if ct < time || (ct = time && Array.unsafe_get h.seqs c < seq) then begin
        set h !i ~time:ct ~seq:(Array.unsafe_get h.seqs c) (Array.unsafe_get h.values c);
        i := c
      end
      else continue := false
    end
  done;
  set h !i ~time ~seq value

let push h ~time value =
  if h.len = Array.length h.values then grow h value;
  let i = h.len in
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  h.len <- i + 1;
  sift_up h i ~time ~seq value

let is_empty h = h.len = 0
let size h = h.len

let[@inline] min_time h =
  if h.len = 0 then invalid_arg "Heap.min_time: empty";
  Array.unsafe_get h.times 0

(* Remove the root by sifting the last element down from the top. Freed
   slots keep stale value references (bounded by capacity, reclaimed on the
   next push into them) — a deliberate trade for an allocation-free pop. *)
let pop_min h =
  if h.len = 0 then invalid_arg "Heap.pop_min: empty";
  let v = Array.unsafe_get h.values 0 in
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then
    sift_down h ~time:(Array.unsafe_get h.times last) ~seq:(Array.unsafe_get h.seqs last)
      (Array.unsafe_get h.values last);
  v

let peek_time h = if h.len = 0 then None else Some (min_time h)
let clear h = h.len <- 0
