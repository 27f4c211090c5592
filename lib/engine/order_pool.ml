(* Slots hold elements in arrival order and [live] flags the ones not yet
   taken. [tree] is a 1-based Fenwick tree over those flags: node [j] counts
   the live slots in (j - lowbit j, j]. Only nodes 1..len are kept exact; a
   node past [len] is computed from its children when its slot is pushed,
   so a push never walks up the tree and a take never walks past [len]. *)

type 'a t = {
  dummy : 'a;
  mutable slots : 'a array;
  mutable live : Bytes.t;
  mutable tree : int array;
  mutable len : int;  (** slots used so far, live or taken *)
  mutable count : int;  (** live elements *)
}

let create ~dummy = { dummy; slots = [||]; live = Bytes.empty; tree = [| 0 |]; len = 0; count = 0 }
let length p = p.count
let[@inline] lowbit j = j land -j

(* Move the live elements, in order, to the front of fresh arrays sized
   twice the live count (at least 16). Every kept slot is then live, so
   Fenwick node [j] covers exactly [lowbit j] of them. *)
let compact p =
  let cap = max 16 (2 * p.count) in
  let slots = Array.make cap p.dummy in
  let next = ref 0 in
  for i = 0 to p.len - 1 do
    if Bytes.get p.live i <> '\000' then begin
      slots.(!next) <- p.slots.(i);
      incr next
    end
  done;
  p.slots <- slots;
  p.live <- Bytes.make cap '\000';
  Bytes.fill p.live 0 p.count '\001';
  p.tree <- Array.init (cap + 1) lowbit;
  p.len <- p.count

let push p x =
  if p.len = Array.length p.slots then compact p;
  let i = p.len in
  p.slots.(i) <- x;
  Bytes.set p.live i '\001';
  (* Node [j] covers slot [j] itself plus its children j-1, j-2, j-4, ...,
     j - lowbit j / 2, all below [j] and so already exact. The number of
     children is the count of trailing zeros of [j]: O(1) on average. *)
  let j = i + 1 in
  let sum = ref 1 and step = ref 1 in
  while !step < lowbit j do
    sum := !sum + p.tree.(j - !step);
    step := 2 * !step
  done;
  p.tree.(j) <- !sum;
  p.len <- j;
  p.count <- p.count + 1

let take p i =
  if i < 0 || i >= p.count then invalid_arg "Order_pool.take: index out of range";
  (* Binary lifting: [pos] ends as the longest prefix holding at most [i]
     live slots, so slot [pos] (0-based) is the (i+1)-th live one. *)
  let top = ref 1 in
  while 2 * !top <= p.len do
    top := 2 * !top
  done;
  let pos = ref 0 and rank = ref (i + 1) and step = ref !top in
  while !step > 0 do
    let next = !pos + !step in
    if next <= p.len && p.tree.(next) < !rank then begin
      pos := next;
      rank := !rank - p.tree.(next)
    end;
    step := !step lsr 1
  done;
  let slot = !pos in
  let x = p.slots.(slot) in
  p.slots.(slot) <- p.dummy;
  Bytes.set p.live slot '\000';
  let j = ref (slot + 1) in
  while !j <= p.len do
    p.tree.(!j) <- p.tree.(!j) - 1;
    j := !j + lowbit !j
  done;
  p.count <- p.count - 1;
  x
