(* Property-based tests (QCheck): data-structure invariants and
   whole-protocol correctness under randomized instances, adversaries and
   schedules. *)

open Dr_core
module Bitarray = Dr_source.Bitarray
module Segment = Dr_source.Segment
module Fault = Dr_adversary.Fault
module Latency = Dr_adversary.Latency
module Crash_plan = Dr_adversary.Crash_plan
module Prng = Dr_engine.Prng
module Order_pool = Dr_engine.Order_pool

let bits_gen =
  QCheck.Gen.(map (fun l -> List.map (fun b -> if b then '1' else '0') l |> List.to_seq |> String.of_seq)
                (list_size (int_range 1 120) bool))

let bits_arb = QCheck.make ~print:(fun s -> s) bits_gen

(* ------------------------------------------------------------------ *)
(* Bitarray                                                            *)
(* ------------------------------------------------------------------ *)

let prop_bits_roundtrip =
  QCheck.Test.make ~name:"bitarray: of_string/to_string roundtrip" ~count:200 bits_arb (fun s ->
      Bitarray.to_string (Bitarray.of_string s) = s)

let prop_bits_count_ones =
  QCheck.Test.make ~name:"bitarray: count_ones matches string" ~count:200 bits_arb (fun s ->
      Bitarray.count_ones (Bitarray.of_string s)
      = String.fold_left (fun acc c -> if c = '1' then acc + 1 else acc) 0 s)

let prop_bits_first_diff =
  QCheck.Test.make ~name:"bitarray: first_diff matches naive scan" ~count:200
    QCheck.(pair bits_arb (small_int))
    (fun (s, flips) ->
      let a = Bitarray.of_string s in
      let b = ref (Bitarray.copy a) in
      let len = String.length s in
      for f = 0 to flips mod 4 do
        b := Bitarray.flip !b ((f * 7) mod len)
      done;
      let naive =
        let rec scan i =
          if i >= len then None
          else if Bitarray.get a i <> Bitarray.get !b i then Some i
          else scan (i + 1)
        in
        scan 0
      in
      Bitarray.first_diff a !b = naive)

let prop_bits_append_sub =
  QCheck.Test.make ~name:"bitarray: sub inverts append" ~count:200
    QCheck.(pair bits_arb bits_arb)
    (fun (s1, s2) ->
      let a = Bitarray.of_string s1 and b = Bitarray.of_string s2 in
      let ab = Bitarray.append a b in
      Bitarray.equal (Bitarray.sub ab ~pos:0 ~len:(Bitarray.length a)) a
      && Bitarray.equal (Bitarray.sub ab ~pos:(Bitarray.length a) ~len:(Bitarray.length b)) b)

let prop_bits_flip_involution =
  QCheck.Test.make ~name:"bitarray: flip twice restores" ~count:200
    QCheck.(pair bits_arb small_nat)
    (fun (s, i) ->
      let a = Bitarray.of_string s in
      let i = i mod String.length s in
      Bitarray.equal (Bitarray.flip (Bitarray.flip a i) i) a)

(* The byte kernels against a bool-list model. Arrays run from 0 to 200
   bits, the ends included, and every case tries each bit offset [pos land 7]
   that fits for [sub] and [blit]. Each result must hold the model's bits
   with zero padding: equal, [compare]-equal and hash-equal to the array
   rebuilt from its string, and to one built bit by bit with [set]. *)
let bools_of x = List.init (Bitarray.length x) (Bitarray.get x)

let of_bools l =
  let x = Bitarray.create (List.length l) in
  List.iteri (fun i b -> if b then Bitarray.set x i true) l;
  x

let take n l = List.filteri (fun i _ -> i < n) l
let drop n l = List.filteri (fun i _ -> i >= n) l

let same_array x model =
  let same y = Bitarray.equal x y && Bitarray.compare x y = 0 && Hashtbl.hash x = Hashtbl.hash y in
  bools_of x = model && same (Bitarray.of_string (Bitarray.to_string x)) && same (of_bools model)

let bits_model_arb =
  let bools =
    QCheck.Gen.(
      frequency [ (1, return 0); (1, return 200); (8, int_range 0 200) ] >>= fun n ->
      list_repeat n bool)
  in
  let print (xs, ys, u, v) =
    let s l = String.concat "" (List.map (fun b -> if b then "1" else "0") l) in
    Printf.sprintf "xs=%s ys=%s u=%d v=%d" (s xs) (s ys) u v
  in
  QCheck.make ~print QCheck.Gen.(quad bools bools (int_range 0 1000) (int_range 0 1000))

let prop_bits_kernels_model =
  QCheck.Test.make ~name:"bitarray: byte kernels match a bool-list model" ~count:300
    bits_model_arb (fun (xs, ys, u, v) ->
      let x = of_bools xs and y = of_bools ys in
      let n = List.length xs and m = List.length ys in
      let ok = ref true in
      let expect r model = if not (same_array r model) then ok := false in
      for off = 0 to Int.min 7 n do
        let pos = off + (8 * (u mod (1 + ((n - off) / 8)))) in
        let len = v mod (n - pos + 1) in
        expect (Bitarray.sub x ~pos ~len) (take len (drop pos xs));
        let src = take (Int.min m (n - pos)) ys in
        let dst = Bitarray.copy x in
        Bitarray.blit ~src:(of_bools src) ~dst ~pos;
        expect dst (take pos xs @ src @ drop (pos + List.length src) xs)
      done;
      expect (Bitarray.append x y) (xs @ ys);
      let xa = Array.of_list xs and calls = ref [] in
      let r = Bitarray.init n (fun i -> calls := i :: !calls; xa.(i)) in
      expect r xs;
      if List.rev !calls <> List.init n Fun.id then ok := false;
      if n > 0 then begin
        let flipped = List.mapi (fun i b -> if i = u mod n || i = v mod n then not b else b) xs in
        let rec first i = function
          | a :: l, b :: l' -> if Bool.equal a b then first (i + 1) (l, l') else Some i
          | _ -> None
        in
        if Bitarray.first_diff x (of_bools flipped) <> first 0 (xs, flipped) then ok := false
      end;
      if Bitarray.first_diff x (Bitarray.copy x) <> None then ok := false;
      !ok)

(* ------------------------------------------------------------------ *)
(* Order_pool                                                          *)
(* ------------------------------------------------------------------ *)

(* The arbiter's event pool against the list semantics it replaced: append
   to the end, take the i-th element, keep the others in order, with the
   simulator's clamp of an out-of-range choice to 0. Sequences run to a few
   hundred pushes (so the slot array compacts and grows many times), mix in
   negative and out-of-range indices, and drain the pool completely before
   pushing again. *)
type pool_op = Push | Take of int | Drain

let pool_ops_arb =
  let op =
    QCheck.Gen.(
      frequency
        [
          (30, return Push);
          (2, map (fun i -> Take i) (int_range (-5) (-1)));
          (12, map (fun i -> Take i) (int_range 0 40));
          (6, map (fun i -> Take i) (int_range 0 400));
          (1, return Drain);
        ])
  in
  let print = function Push -> "push" | Take i -> Printf.sprintf "take %d" i | Drain -> "drain" in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print ops))
    QCheck.Gen.(list_size (int_range 0 700) op)

let prop_order_pool_matches_list =
  QCheck.Test.make ~name:"order-pool: same picks as the list pool" ~count:300 pool_ops_arb
    (fun ops ->
      let pool = Order_pool.create ~dummy:(-1) in
      let model = ref [] and next = ref 0 and ok = ref true in
      let take i =
        let count = List.length !model in
        let i = if i < 0 || i >= count then 0 else i in
        let expected = List.nth !model i in
        model := List.filteri (fun j _ -> j <> i) !model;
        if Order_pool.take pool i <> expected then ok := false
      in
      List.iter
        (fun op ->
          (match op with
          | Push ->
            model := !model @ [ !next ];
            Order_pool.push pool !next;
            incr next
          | Take i -> if !model <> [] then take i
          | Drain ->
            while !model <> [] do
              take (List.length !model / 2)
            done);
          if Order_pool.length pool <> List.length !model then ok := false)
        ops;
      let rejects i = try ignore (Order_pool.take pool i); false with Invalid_argument _ -> true in
      !ok && rejects (-1) && rejects (Order_pool.length pool))

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

(* The record-based xoshiro256** that [Prng] replaced, kept verbatim as the
   reference: four mutable boxed int64 fields, splitmix64 through an
   [int64 ref], and [Int64.unsigned_rem] for [int]. Every stream in the tree
   (schedules, latencies, instances, coin flips) must stay bit-identical to
   it. *)
module Ref_prng = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let splitmix_next state =
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create seed =
    let st = ref seed in
    let s0 = splitmix_next st in
    let s1 = splitmix_next st in
    let s2 = splitmix_next st in
    let s3 = splitmix_next st in
    { s0; s1; s2; s3 }

  let next64 g =
    let result = Int64.mul (rotl (Int64.mul g.s1 5L) 7) 9L in
    let t = Int64.shift_left g.s1 17 in
    g.s2 <- Int64.logxor g.s2 g.s0;
    g.s3 <- Int64.logxor g.s3 g.s1;
    g.s1 <- Int64.logxor g.s1 g.s2;
    g.s0 <- Int64.logxor g.s0 g.s3;
    g.s2 <- Int64.logxor g.s2 t;
    g.s3 <- rotl g.s3 45;
    result

  let split g = create (next64 g)
  let int g bound = Int64.to_int (Int64.unsigned_rem (next64 g) (Int64.of_int bound))

  let float g bound =
    let mantissa = Int64.shift_right_logical (next64 g) 11 in
    Int64.to_float mantissa *. (1.0 /. 9007199254740992.0) *. bound

  let bool g = Int64.logand (next64 g) 1L = 1L
  let bits g w = if w = 0 then 0 else Int64.to_int (Int64.shift_right_logical (next64 g) (64 - w))

  let shuffle g a =
    for i = Array.length a - 1 downto 1 do
      let j = int g (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
end

type prng_op =
  | Next64
  | Split
  | Float of float
  | Bool
  | Bits of int
  | Int of int
  | Shuffle of int

(* Seeds: the edge values, including 0 and negative int64s, or any int64.
   Bounds for [int]: 1, every power of two an [int] holds, 2^30 + 1,
   [max_int], or a small or arbitrary positive int. Half of all raw draws
   are negative as signed int64, so most [int] calls take the unsigned
   branch of the remainder. *)
let prng_case_arb =
  let open QCheck.Gen in
  let seed =
    frequency
      [
        (1, oneofl [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0x9E3779B97F4A7C15L ]);
        (3, ui64);
      ]
  in
  let bound =
    frequency
      [
        (2, oneofl ([ 1; (1 lsl 30) + 1; max_int ] @ List.init 62 (fun e -> 1 lsl e)));
        (1, int_range 1 1000);
        (1, map (fun b -> 1 + (b land (max_int - 1))) int);
      ]
  in
  let op =
    frequency
      [
        (4, return Next64);
        (1, return Split);
        (2, map (fun b -> Float b) (oneofl [ 1.0; 0.95; 1e6 ]));
        (2, return Bool);
        (2, map (fun w -> Bits w) (int_range 0 30));
        (6, map (fun b -> Int b) bound);
        (1, map (fun n -> Shuffle n) (int_range 0 40));
      ]
  in
  let print_op = function
    | Next64 -> "next64"
    | Split -> "split"
    | Float b -> Printf.sprintf "float %g" b
    | Bool -> "bool"
    | Bits w -> Printf.sprintf "bits %d" w
    | Int b -> Printf.sprintf "int %d" b
    | Shuffle n -> Printf.sprintf "shuffle %d" n
  in
  QCheck.make
    ~print:(fun (seed, ops) ->
      Printf.sprintf "seed %Ld: %s" seed (String.concat "; " (List.map print_op ops)))
    (pair seed (list_size (int_range 1 60) op))

let prop_prng_matches_reference =
  QCheck.Test.make ~name:"prng: same streams as the record-based reference" ~count:500
    prng_case_arb (fun (seed, ops) ->
      let g = ref (Prng.create seed) and r = ref (Ref_prng.create seed) in
      List.for_all
        (fun op ->
          match op with
          | Next64 -> Int64.equal (Prng.next64 !g) (Ref_prng.next64 !r)
          | Split ->
            g := Prng.split !g;
            r := Ref_prng.split !r;
            Int64.equal (Prng.next64 !g) (Ref_prng.next64 !r)
          | Float b -> Float.equal (Prng.float !g b) (Ref_prng.float !r b)
          | Bool -> Bool.equal (Prng.bool !g) (Ref_prng.bool !r)
          | Bits w -> Int.equal (Prng.bits !g w) (Ref_prng.bits !r w)
          | Int b -> Int.equal (Prng.int !g b) (Ref_prng.int !r b)
          | Shuffle n ->
            let a = Array.init n Fun.id and a' = Array.init n Fun.id in
            Prng.shuffle !g a;
            Ref_prng.shuffle !r a';
            a = a')
        ops)

(* ------------------------------------------------------------------ *)
(* Segment                                                             *)
(* ------------------------------------------------------------------ *)

let seg_params = QCheck.(pair (int_range 1 500) (int_range 1 64))

let prop_segment_tiles =
  QCheck.Test.make ~name:"segment: tiles [0,n) exactly" ~count:300 seg_params (fun (n, s) ->
      QCheck.assume (s <= n);
      let spec = Segment.make ~n ~s in
      let covered = Array.make n 0 in
      for j = 0 to s - 1 do
        let pos, len = Segment.bounds spec j in
        for i = pos to pos + len - 1 do
          covered.(i) <- covered.(i) + 1
        done
      done;
      Array.for_all (fun c -> c = 1) covered)

let prop_segment_of_bit =
  QCheck.Test.make ~name:"segment: of_bit is the inverse of bounds" ~count:300 seg_params
    (fun (n, s) ->
      QCheck.assume (s <= n);
      let spec = Segment.make ~n ~s in
      let ok = ref true in
      for i = 0 to n - 1 do
        let j = Segment.of_bit spec i in
        let pos, len = Segment.bounds spec j in
        if not (i >= pos && i < pos + len) then ok := false
      done;
      !ok)

let prop_segment_children_concat =
  QCheck.Test.make ~name:"segment: children concatenate to parent" ~count:100
    QCheck.(pair (int_range 4 400) (int_range 1 5))
    (fun (n, logs) ->
      let s = 1 lsl logs in
      QCheck.assume (s <= n);
      let fine = Segment.make ~n ~s in
      let coarse = Segment.halve fine in
      let x = Bitarray.random (Prng.create (Int64.of_int (n + s))) n in
      let ok = ref true in
      for j = 0 to coarse.Segment.s - 1 do
        let parts =
          List.map (Segment.extract fine x) (Segment.children ~coarse ~fine j)
        in
        let joined = List.fold_left Bitarray.append (Bitarray.create 0) parts in
        if not (Bitarray.equal joined (Segment.extract coarse x j)) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)
(* ------------------------------------------------------------------ *)

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire: split/assemble roundtrip (any order)" ~count:200
    QCheck.(triple bits_arb (int_range 1 40) (int_range 0 1000))
    (fun (s, b, shuffle_seed) ->
      let bits = Bitarray.of_string s in
      let parts = Wire.split ~b bits in
      let arr = Array.of_list parts in
      Prng.shuffle (Prng.create (Int64.of_int shuffle_seed)) arr;
      let asm = Wire.Assembly.create ~len:(Bitarray.length bits) ~b in
      Array.iter (fun (part, payload) -> Wire.Assembly.add asm ~part payload) arr;
      Wire.Assembly.complete asm && Bitarray.equal (Wire.Assembly.get asm) bits)

(* ------------------------------------------------------------------ *)
(* Decision trees                                                      *)
(* ------------------------------------------------------------------ *)

let candidates_gen =
  (* Between 1 and 12 strings of equal length 1..24, plus the index of the
     "true" one. *)
  QCheck.Gen.(
    int_range 1 24 >>= fun len ->
    int_range 1 12 >>= fun count ->
    list_repeat count (list_repeat len bool) >>= fun strings ->
    int_range 0 (count - 1) >>= fun truth_idx -> return (len, strings, truth_idx))

let candidates_arb =
  QCheck.make
    ~print:(fun (len, strings, idx) ->
      Printf.sprintf "len=%d idx=%d [%s]" len idx
        (String.concat ";"
           (List.map (fun l -> String.concat "" (List.map (fun b -> if b then "1" else "0") l)) strings)))
    candidates_gen

let prop_tree_recovers_truth =
  QCheck.Test.make ~name:"tree: determine recovers the true candidate" ~count:300 candidates_arb
    (fun (_len, strings, truth_idx) ->
      let candidates = List.map (fun l -> Bitarray.init (List.length l) (List.nth l)) strings in
      let truth = List.nth candidates truth_idx in
      let tree = Decision_tree.build candidates in
      let got, spent = Decision_tree.determine ~query:(fun (pos, len) -> Bitarray.sub truth ~pos ~len) ~offset:0 tree in
      Bitarray.equal got truth
      && spent <= List.length (List.sort_uniq Bitarray.compare candidates) - 1)

let prop_tree_node_count =
  QCheck.Test.make ~name:"tree: internal nodes = distinct - 1" ~count:300 candidates_arb
    (fun (_len, strings, _idx) ->
      let candidates = List.map (fun l -> Bitarray.init (List.length l) (List.nth l)) strings in
      let distinct = List.length (List.sort_uniq Bitarray.compare candidates) in
      Decision_tree.internal_nodes (Decision_tree.build candidates) = distinct - 1)

(* ------------------------------------------------------------------ *)
(* Whole-protocol properties                                           *)
(* ------------------------------------------------------------------ *)

let crash_instance_gen =
  QCheck.Gen.(
    int_range 2 9 >>= fun k ->
    int_range 0 (k - 1) >>= fun t ->
    int_range (max 1 k) 80 >>= fun n ->
    int_range 0 5 >>= fun after_sends ->
    int_range 1 10_000 >>= fun seed -> return (k, t, n, after_sends, seed))

let crash_instance_arb =
  QCheck.make
    ~print:(fun (k, t, n, a, seed) -> Printf.sprintf "k=%d t=%d n=%d after=%d seed=%d" k t n a seed)
    crash_instance_gen

let prop_crash_general_always_correct =
  QCheck.Test.make ~name:"crash-general: correct on random instances" ~count:60 crash_instance_arb
    (fun (k, t, n, after_sends, seed) ->
      let seed = Int64.of_int seed in
      let inst = Problem.random_instance ~seed ~k ~n ~t () in
      let opts =
        Exec.default
        |> Exec.with_latency (Latency.jittered (Prng.create seed))
        |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends)
      in
      (Crash_general.run ~opts inst).Problem.ok)

(* ------------------------------------------------------------------ *)
(* Sim: a range query is its per-bit loop                              *)
(* ------------------------------------------------------------------ *)

module Sim = Dr_engine.Sim
module Trace = Dr_engine.Trace

module Rmsg = struct
  type t = int

  let size_bits _ = 8
  let tag = string_of_int
end

module RS = Sim.Make (Rmsg)

(* Everything a run of [range_run] shows of its queries. *)
type range_view = {
  outputs : (float * string) option array;
  status : Sim.status;
  events : int;
  end_time : float;
  charged : int array;  (** per-peer Q *)
  calls : (int * int) list;  (** [query_bit] calls as (peer, index), in order *)
  records : Trace.event list option;
}

(* Two peers each read bits [pos, pos + len) of [x] and swap one message.
   Peer 0 may carry an [After_queries] budget; [delay] is peer 0's query
   latency and half of it peer 1's. With [per_bit] each peer reads the
   range as [len] one-bit ranges. *)
let range_run ~per_bit ~x ~pos ~len ~budget ~delay ~traced =
  let calls = ref [] in
  let query_bit ~peer i =
    calls := (peer, i) :: !calls;
    Bitarray.get x i
  in
  let trace = if traced then Some (Trace.create ()) else None in
  let cfg =
    {
      (Sim.default_config ~k:2 ~query_bit) with
      query_latency = (fun ~peer -> if peer = 0 then delay else delay /. 2.);
      crash =
        (fun peer ->
          match budget with Some j when peer = 0 -> Sim.After_queries j | _ -> Sim.Never);
      trace;
    }
  in
  let read () =
    if per_bit then Bitarray.init len (fun r -> RS.query (pos + r, 1) (fun _ f -> f 0))
    else RS.query (pos, len) Bitarray.init
  in
  let out =
    RS.run cfg (fun i ->
        let bits = read () in
        RS.send (1 - i) i;
        ignore (RS.receive ());
        Bitarray.to_string bits)
  in
  {
    outputs = out.Sim.outputs;
    status = out.Sim.status;
    events = out.Sim.events;
    end_time = out.Sim.end_time;
    charged = Array.init 2 (fun i -> (Dr_engine.Metrics.peer out.Sim.metrics i).queries);
    calls = List.rev !calls;
    records = Option.map Trace.events trace;
  }

let range_arb =
  QCheck.make
    ~print:(fun (n, pos, len, budget, delay, traced, seed) ->
      Printf.sprintf "n=%d pos=%d len=%d budget=%s delay=%g traced=%b seed=%d" n pos len
        (match budget with Some j -> string_of_int j | None -> "none")
        delay traced seed)
    QCheck.Gen.(
      int_range 1 100 >>= fun n ->
      int_range 0 (n - 1) >>= fun pos ->
      int_range 0 (n - pos) >>= fun len ->
      opt (int_range 0 (len + 2)) >>= fun budget ->
      oneofl [ 0.; 0.25 ] >>= fun delay ->
      bool >>= fun traced ->
      int_range 1 10_000 >>= fun seed -> return (n, pos, len, budget, delay, traced, seed))

let prop_sim_range_is_per_bit =
  QCheck.Test.make ~name:"sim: a range query equals its per-bit loop" ~count:400 range_arb
    (fun (n, pos, len, budget, delay, traced, seed) ->
      let x = Bitarray.random (Prng.create (Int64.of_int seed)) n in
      let range = range_run ~per_bit:false ~x ~pos ~len ~budget ~delay ~traced in
      let bits = range_run ~per_bit:true ~x ~pos ~len ~budget ~delay ~traced in
      let q0 = range.charged.(0) in
      (* A crash planned inside the range: the peer dies charged exactly j
         ([After_queries 0] dies at the first bit). Otherwise it reads all
         [len] bits and terminates. *)
      let crash_ok =
        match budget with
        | Some j when len > 0 && j <= len -> range.outputs.(0) = None && q0 = max j 1
        | Some _ | None -> range.outputs.(0) <> None && q0 = len
      in
      (* one [Queried] record per bit read, in index order *)
      let records_ok =
        match range.records with
        | None -> true
        | Some evs ->
          List.filter_map
            (function Trace.Queried { peer = 0; index; _ } -> Some index | _ -> None)
            evs
          = List.init q0 (fun r -> pos + r)
      in
      range = bits && crash_ok && records_ok)

(* [Crash_general.index_bits] against the recursive bit length it replaced,
   on index lists that mix 0, small and random indices and values near
   [max_int] (where [i + 2] wraps). *)
let rec ref_bit_length v = if v = 0 then 0 else 1 + ref_bit_length (v lsr 1)

let ref_index_bits idx =
  Array.fold_left (fun acc i -> acc + max 1 (ref_bit_length (i + 2 - 1))) 0 idx

let index_list_arb =
  let entry =
    QCheck.Gen.(
      oneof
        [ return 0; small_nat; int_range (max_int - 8) max_int; map (fun v -> v land max_int) int ])
  in
  QCheck.make
    ~print:(fun a -> String.concat ";" (Array.to_list (Array.map string_of_int a)))
    QCheck.Gen.(array_size (int_range 0 24) entry)

let prop_crash_general_index_bits =
  QCheck.Test.make ~name:"crash-general: index charge equals the recursive reference" ~count:500
    index_list_arb (fun idx -> Crash_general.index_bits idx = ref_index_bits idx)

let prop_crash_general_q_bound =
  QCheck.Test.make ~name:"crash-general: Q <= n/(gamma k) + n/k + slack" ~count:40
    crash_instance_arb (fun (k, t, n, after_sends, seed) ->
      let seed = Int64.of_int seed in
      let inst = Problem.random_instance ~seed ~k ~n ~t () in
      let opts =
        Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends) Exec.default
      in
      let r = Crash_general.run ~opts inst in
      let gamma = float_of_int (k - t) /. float_of_int k in
      let bound =
        int_of_float (float_of_int n /. (gamma *. float_of_int k)) + (n / k) + (2 * k) + 2
      in
      r.Problem.ok && r.Problem.q_max <= bound)

(* Run a registry entry with the attack picked by index from the entry's own
   catalog. The attack vocabulary lives in one place (the registry), so a
   protocol that grows a new attack is exercised here without edits. *)
let registry_attack_run ~name ?segments ?rho ~opts ~attack_idx inst =
  let entry = Registry.find_exn name in
  let attacks = Registry.attacks entry in
  let attack = List.nth attacks (attack_idx mod List.length attacks) in
  entry.Registry.run ~opts ~attack ?segments ?rho inst

let committee_instance_gen =
  QCheck.Gen.(
    int_range 0 3 >>= fun t ->
    int_range ((2 * t) + 1) 9 >>= fun k ->
    int_range (max 1 k) 100 >>= fun n ->
    int_range 0 3 >>= fun attack ->
    int_range 1 10_000 >>= fun seed -> return (k, t, n, attack, seed))

let committee_instance_arb =
  QCheck.make
    ~print:(fun (k, t, n, a, seed) -> Printf.sprintf "k=%d t=%d n=%d attack=%d seed=%d" k t n a seed)
    committee_instance_gen

let prop_committee_always_correct =
  QCheck.Test.make ~name:"committee: correct under any catalog attack" ~count:60
    committee_instance_arb (fun (k, t, n, attack, seed) ->
      let seed = Int64.of_int seed in
      let inst = Problem.random_instance ~seed ~model:Problem.Byzantine ~k ~n ~t () in
      let opts = Exec.with_latency (Latency.jittered (Prng.create seed)) Exec.default in
      (registry_attack_run ~name:"byz-committee" ~opts ~attack_idx:attack inst).Problem.ok)

let prop_balanced_correct =
  QCheck.Test.make ~name:"balanced: correct on fault-free random instances" ~count:60
    QCheck.(pair (int_range 1 12) (int_range 1 200))
    (fun (k, n) ->
      let inst = Problem.random_instance ~seed:(Int64.of_int (k + n)) ~k ~n ~t:0 () in
      (Balanced.run inst).Problem.ok)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let prop_summary_bounds =
  QCheck.Test.make ~name:"summary: median and mean within [min,max]" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun values ->
      let s = Dr_stats.Summary.of_floats values in
      s.Dr_stats.Summary.median >= s.Dr_stats.Summary.min
      && s.Dr_stats.Summary.median <= s.Dr_stats.Summary.max
      && s.Dr_stats.Summary.mean >= s.Dr_stats.Summary.min -. 1e-9
      && s.Dr_stats.Summary.mean <= s.Dr_stats.Summary.max +. 1e-9)

let prop_binomial_pmf_sums =
  QCheck.Test.make ~name:"chernoff: binomial pmf sums to 1" ~count:50
    QCheck.(pair (int_range 0 60) (float_range 0.01 0.99))
    (fun (trials, p) ->
      let total = ref 0. in
      for i = 0 to trials do
        total := !total +. Dr_stats.Chernoff.binomial_pmf ~trials ~p i
      done;
      abs_float (!total -. 1.) < 1e-6)

let prop_coverage_monotone_in_rho =
  QCheck.Test.make ~name:"chernoff: coverage failure monotone in rho" ~count:100
    QCheck.(triple (int_range 1 100) (int_range 1 10) (int_range 1 10))
    (fun (honest, segments, rho) ->
      Dr_stats.Chernoff.coverage_failure ~honest ~segments ~rho
      <= Dr_stats.Chernoff.coverage_failure ~honest ~segments ~rho:(rho + 1) +. 1e-12)


let prop_crash_single_always_correct =
  QCheck.Test.make ~name:"crash-single: correct on random instances" ~count:60
    QCheck.(quad (int_range 2 10) (int_range 0 1) (int_range 2 100) (int_range 0 10_000))
    (fun (k, t, n, seed) ->
      QCheck.assume (n >= k);
      let seed64 = Int64.of_int (seed + 1) in
      let inst = Problem.random_instance ~seed:seed64 ~k ~n ~t () in
      let after_sends = seed mod 5 in
      let opts =
        Exec.default
        |> Exec.with_latency (Latency.jittered (Prng.create seed64))
        |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends)
      in
      (Crash_single.run ~opts inst).Problem.ok)

(* Heterogeneous WAN: each ordered link gets its own constant delay, drawn
   once. Deterministic protocols must not care. *)
let heterogeneous_links seed =
  let g = Prng.create seed in
  let table = Hashtbl.create 64 in
  fun ~src ~dst ~time:_ ~size_bits:_ ->
    match Hashtbl.find_opt table (src, dst) with
    | Some d -> d
    | None ->
      let d = 0.05 +. Prng.float g 0.95 in
      Hashtbl.add table (src, dst) d;
      d

let prop_crash_general_heterogeneous_wan =
  QCheck.Test.make ~name:"crash-general: correct on heterogeneous per-link delays" ~count:40
    crash_instance_arb (fun (k, t, n, after_sends, seed) ->
      let seed64 = Int64.of_int seed in
      let inst = Problem.random_instance ~seed:seed64 ~k ~n ~t () in
      let opts =
        Exec.default
        |> Exec.with_latency (heterogeneous_links seed64)
        |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends)
      in
      (Crash_general.run ~opts inst).Problem.ok)

let prop_crash_general_link_serialized =
  QCheck.Test.make ~name:"crash-general: correct with B-limited serialized links" ~count:30
    crash_instance_arb (fun (k, t, n, after_sends, seed) ->
      let seed64 = Int64.of_int seed in
      let inst = Problem.random_instance ~seed:seed64 ~k ~n ~t () in
      let opts =
        Exec.default
        |> Exec.with_link_rate (float_of_int inst.Problem.b)
        |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends)
      in
      (Crash_general.run ~opts inst).Problem.ok)

(* The 2-cycle protocol on parameters where coverage is essentially certain
   (rho = 1, many honest peers per segment): any catalog attack, any
   schedule. *)
let byz2_instance_gen =
  QCheck.Gen.(
    int_range 0 3 >>= fun t ->
    int_range (max 16 ((4 * t) + 4)) 40 >>= fun k ->
    int_range k 300 >>= fun n ->
    int_range 0 4 >>= fun attack ->
    int_range 1 10_000 >>= fun seed -> return (k, t, n, attack, seed))

let byz2_instance_arb =
  QCheck.make
    ~print:(fun (k, t, n, a, s) -> Printf.sprintf "k=%d t=%d n=%d attack=%d seed=%d" k t n a s)
    byz2_instance_gen

let prop_byz_2cycle_safe_params =
  QCheck.Test.make ~name:"byz-2cycle: correct under catalog attacks (safe parameters)" ~count:60
    byz2_instance_arb (fun (k, t, n, attack, seed) ->
      let seed64 = Int64.of_int seed in
      let inst = Problem.random_instance ~seed:seed64 ~model:Problem.Byzantine ~k ~n ~t () in
      let opts = Exec.with_latency (Latency.jittered (Prng.create seed64)) Exec.default in
      (* s = 2 with >= 10 honest reporters: coverage failure < 2^-8. *)
      (registry_attack_run ~name:"byz-2cycle" ~segments:2 ~rho:1 ~opts ~attack_idx:attack inst)
        .Problem.ok)

let prop_byz_multicycle_safe_params =
  QCheck.Test.make ~name:"byz-multicycle: correct under catalog attacks (safe parameters)"
    ~count:40 byz2_instance_arb (fun (k, t, n, attack, seed) ->
      let seed64 = Int64.of_int seed in
      let inst = Problem.random_instance ~seed:seed64 ~model:Problem.Byzantine ~k ~n ~t () in
      let opts = Exec.with_latency (Latency.jittered (Prng.create seed64)) Exec.default in
      (registry_attack_run ~name:"byz-multicycle" ~segments:2 ~rho:1 ~opts ~attack_idx:attack inst)
        .Problem.ok)

let prop_spec_bound_crash_general =
  QCheck.Test.make ~name:"spec: crash-general Q bound holds on random instances" ~count:50
    crash_instance_arb (fun (k, t, n, after_sends, seed) ->
      let seed64 = Int64.of_int seed in
      let inst = Problem.random_instance ~seed:seed64 ~k ~n ~t () in
      let opts =
        Exec.default
        |> Exec.with_latency (Latency.jittered (Prng.create seed64))
        |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends)
      in
      let r = Crash_general.run ~opts inst in
      r.Problem.ok
      && Spec.within Spec.crash_general ~k ~n ~t ~b:inst.Problem.b ~measured:r.Problem.q_max)

let prop_spec_bound_committee =
  QCheck.Test.make ~name:"spec: committee Q bound holds on random instances" ~count:50
    committee_instance_arb (fun (k, t, n, attack, seed) ->
      ignore attack;
      let seed64 = Int64.of_int seed in
      let inst = Problem.random_instance ~seed:seed64 ~model:Problem.Byzantine ~k ~n ~t () in
      let opts = Exec.with_latency (Latency.jittered (Prng.create seed64)) Exec.default in
      let r = Committee.run_with ~opts ~attack:Committee.Equivocate inst in
      r.Problem.ok
      && Spec.within Spec.committee ~k ~n ~t ~b:inst.Problem.b ~measured:r.Problem.q_max)

let prop_naive_unconditional =
  QCheck.Test.make ~name:"naive: correct whatever the fault pattern" ~count:40
    QCheck.(triple (int_range 1 10) (int_range 1 60) (int_range 0 10_000))
    (fun (k, n, seed) ->
      QCheck.assume (n >= k);
      let t = seed mod k in
      let inst =
        Problem.random_instance ~seed:(Int64.of_int (seed + 1)) ~model:Problem.Byzantine ~k ~n ~t ()
      in
      (Naive.run inst).Problem.ok)

(* ------------------------------------------------------------------ *)
(* Registry matrix: every protocol x every catalog attack              *)
(* ------------------------------------------------------------------ *)

(* The smallest admitted instance with as many faults as the protocol's own
   [supports] precondition allows: faults make the attacks actually fire. For
   the randomized protocols we additionally keep k >= 4t + 4 (the same safe
   margin the QCheck generators use) so the w.h.p. coverage guarantee is
   essentially certain and the matrix stays deterministic-green. *)
let matrix_instance entry =
  let admitted =
    List.concat_map
      (fun (k, n) -> List.init k (fun t -> (k, n, t)))
      [ (2, 4); (3, 6); (4, 8); (5, 10); (9, 18); (20, 40) ]
    |> List.filter (fun (k, n, t) ->
           let inst =
             Problem.random_instance ~seed:7L ~model:entry.Registry.model ~k ~n ~t ()
           in
           Registry.admits entry inst = Ok ()
           && ((not (Registry.randomized entry)) || k >= (4 * t) + 4))
  in
  match List.sort (fun (_, _, t1) (_, _, t2) -> compare t2 t1) admitted with
  | [] -> Alcotest.failf "%s admits no small instance" (Registry.name entry)
  | (k, n, t) :: _ -> Problem.random_instance ~seed:7L ~model:entry.Registry.model ~k ~n ~t ()

let matrix_registry_attacks () =
  List.iter
    (fun entry ->
      let inst = matrix_instance entry in
      List.iter
        (fun attack ->
          let r = entry.Registry.run ~attack ~segments:2 ~rho:1 inst in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: honest peers output X (k=%d n=%d t=%d)"
               (Registry.name entry) attack inst.Problem.k (Problem.n inst) (Problem.t inst))
            true r.Problem.ok)
        (Registry.attacks entry))
    Registry.all

let suite =
  (* A fixed QCheck random state keeps the generated cases identical from
     run to run: the whole test suite stays deterministic (the randomized
     protocols' w.h.p. failure events would otherwise flake CI at ~1e-3). *)
  let rand = Random.State.make [| 0x5eed |] in
  List.map (fun t -> QCheck_alcotest.to_alcotest ~rand t)
    [
      prop_bits_roundtrip;
      prop_bits_count_ones;
      prop_bits_first_diff;
      prop_bits_append_sub;
      prop_bits_flip_involution;
      prop_bits_kernels_model;
      prop_order_pool_matches_list;
      prop_prng_matches_reference;
      prop_segment_tiles;
      prop_segment_of_bit;
      prop_segment_children_concat;
      prop_wire_roundtrip;
      prop_tree_recovers_truth;
      prop_tree_node_count;
      prop_crash_general_always_correct;
      prop_crash_single_always_correct;
      prop_crash_general_heterogeneous_wan;
      prop_crash_general_link_serialized;
      prop_byz_2cycle_safe_params;
      prop_byz_multicycle_safe_params;
      prop_naive_unconditional;
      prop_spec_bound_crash_general;
      prop_spec_bound_committee;
      prop_crash_general_q_bound;
      prop_crash_general_index_bits;
      prop_sim_range_is_per_bit;
      prop_committee_always_correct;
      prop_balanced_correct;
      prop_summary_bounds;
      prop_binomial_pmf_sums;
      prop_coverage_monotone_in_rho;
    ]
  @ [
      Alcotest.test_case "registry matrix: every protocol x catalog attack" `Quick
        matrix_registry_attacks;
    ]
