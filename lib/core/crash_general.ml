module Bitarray = Dr_source.Bitarray
module Segment = Dr_source.Segment
module Prng = Dr_engine.Prng

type msg =
  | Request1 of { phase : int; idx : int array; part : int; parts : int }
      (** pull request: "send me the values of these bits" *)
  | Reply1 of { phase : int; idx : int array; vals : Bitarray.t; part : int; parts : int }
  | Request2 of { phase : int; missing : int array }
  | Reply2 of {
      phase : int;
      about : int;
      known : bool;  (** [false] = "me neither" ([idx] empty) *)
      idx : int array;
      vals : Bitarray.t;
      part : int;
      parts : int;
    }
  | Full of { part : int; bits : Bitarray.t }  (** termination flood: whole array *)

(* Number of binary digits of [v >= 0]; 0 for 0. A loop, not a recursion:
   it runs for every index entry of every message. *)
let bit_length v =
  let v = ref v and l = ref 0 in
  while !v <> 0 do
    incr l;
    v := !v lsr 1
  done;
  !l

(* ⌈log2 v⌉ for [v >= 1], but at least 1. *)
let ceil_log2 v =
  let l = bit_length (v - 1) in
  if l = 0 then 1 else l

(* Each index entry [i] is charged ⌈log2 (i + 2)⌉ bits, the bit length of
   [i + 1] and at least 1. An index below n costs at most the ⌈log2 (n + 2)⌉
   bits per entry that [cap] budgets for when it sizes a batch, so every
   batch fits the message bound. *)
let index_bits idx =
  let acc = ref 0 in
  for r = 0 to Array.length idx - 1 do
    acc := !acc + ceil_log2 (idx.(r) + 2)
  done;
  !acc

module Msg = struct
  type t = msg

  let header = 64

  (* Index lists cost [index_bits]; each value is charged 1 bit. *)
  let size_bits = function
    | Request1 { idx; _ } -> header + index_bits idx
    | Reply1 { idx; vals; _ } -> header + index_bits idx + Bitarray.length vals
    | Request2 { missing; _ } -> header + (16 * Array.length missing)
    | Reply2 { idx; vals; _ } -> header + index_bits idx + Bitarray.length vals
    | Full { bits; _ } -> header + Bitarray.length bits

  let tag = function
    | Request1 { phase; part; _ } -> Printf.sprintf "req1(p%d.%d)" phase part
    | Reply1 { phase; part; _ } -> Printf.sprintf "rep1(p%d.%d)" phase part
    | Request2 { phase; _ } -> Printf.sprintf "req2(p%d)" phase
    | Reply2 { phase; about; known; part; _ } ->
      Printf.sprintf "rep2(p%d,u%d,%s.%d)" phase about (if known then "bits" else "none") part
    | Full { part; _ } -> Printf.sprintf "full(.%d)" part
end

let name = "crash-general"

let supports inst =
  if inst.Problem.model <> Problem.Crash then Error "crash-general handles crash faults only"
  else if Problem.t inst >= inst.Problem.k then Error "crash-general needs at least one honest peer"
  else Ok ()

let phases_upper_bound ~k ~t =
  if t = 0 then 2
  else begin
    let beta = float_of_int t /. float_of_int k in
    let r = ceil (log (float_of_int (max k 2)) /. log (1. /. beta)) in
    int_of_float r + 2
  end

(* The common re-assignment rule: all peers that still miss bit [b] after
   phase [p] hand it to the same pseudo-randomly chosen peer. A pure function
   of (b, p), so it needs no coordination (Claim 1). *)
let reassign_rule ~k ~phase b =
  let h = Prng.create (Int64.add (Int64.mul (Int64.of_int b) 0x100000001b3L) (Int64.of_int phase)) in
  Prng.int h k

module Process (T : Transport.S with type msg = Msg.t) = struct
  let run_with ?(fast_path = true) ?monitor inst me =
    let n = Problem.n inst in
    let k = inst.Problem.k in
    let t = Problem.t inst in
    let quorum_others = max 0 (k - t - 1) in
    let threshold = (n + k - 1) / k in
    let max_phase = phases_upper_bound ~k ~t in
    let bpi = ceil_log2 (n + 2) in
    let cap = max 1 ((inst.Problem.b - Msg.header) / (bpi + 1)) in
    let full_payload = max 1 (inst.Problem.b - Msg.header) in
    let spec = Segment.make ~n ~s:(min k n) in
    let y = Bitarray.create n in
    let know = Array.make n false in
    let unknown = ref n in
    let got_full = ref false in
    let my_phase = ref 1 and my_stage = ref 1 in
    let learn b v =
      if not know.(b) then begin
        know.(b) <- true;
        Bitarray.set y b v;
        decr unknown
      end
    in
    let learn_pairs idx vals =
      Array.iteri (fun r b -> if b >= 0 && b < n then learn b (Bitarray.get vals r)) idx
    in
    (* Current assignment of each bit. *)
    let assign = Array.init n (fun b -> Segment.of_bit spec b) in
    (* --- per-phase bookkeeping ---
       Row [p] of each table belongs to phase p (1..max_phase; row 0 is never
       used) and is indexed by peer, or by [responder * k + about] for the
       [resp2_*] rows. The rows of phase p are allocated when this peer
       enters it, the [resp2_*] rows only once it asks about missing peers,
       so memory follows the phases actually run. Every message of phase p
       that reaches a table answers a request this peer sent in phase p, so
       its row exists. A phase outside 1..max_phase, or one this peer never
       entered, raises [Invalid_argument] on the row access. *)
    let heard = Array.make (max_phase + 1) [||] in
    (* peer in S_p *)
    let heard_count = Array.make (max_phase + 1) 0 in
    let reply1_recv = Array.make (max_phase + 1) [||] in
    (* peer -> parts received so far *)
    let requests_sent = Array.make (max_phase + 1) [||] in
    (* peer -> indices I pulled from them (for Reply2 content) *)
    let resp2_have = Array.make (max_phase + 1) [||] in
    (* responder * k + about -> parts received *)
    let resp2_answered = Array.make (max_phase + 1) [||] in
    (* responder * k + about: the responder's full answer arrived *)
    let full_asm : (int, Wire.Assembly.t) Hashtbl.t = Hashtbl.create 8 in
    let pending_req1 : (int * msg) list ref = ref [] in
    let pending_req2 : (int * msg) list ref = ref [] in
    let in_heard phase peer = heard.(phase).(peer) in
    let mark_heard phase peer =
      let row = heard.(phase) in
      if not row.(peer) then begin
        row.(peer) <- true;
        heard_count.(phase) <- heard_count.(phase) + 1
      end
    in
    (* Send a (idx, vals) batch under the message bound. *)
    let send_batched dst mk idx_all vals_of =
      let total = Array.length idx_all in
      let parts = max 1 ((total + cap - 1) / cap) in
      for part = 0 to parts - 1 do
        let lo = part * cap in
        let len = min cap (total - lo) in
        let len = max len 0 in
        let idx = Array.sub idx_all lo len in
        let vals = Bitarray.init len (fun r -> vals_of idx.(r)) in
        T.send dst (mk ~idx ~vals ~part ~parts)
      done
    in
    let answer_req1 src = function
      | Request1 { phase; idx; part; parts } ->
        (* Reply with my values for exactly the requested indices. By
           Claim 1 I know all of them once I finished stage 1 of [phase];
           crash-model peers never lie, so a miss is a protocol bug. *)
        let vals =
          Bitarray.init (Array.length idx) (fun r ->
              let b = idx.(r) in
              if not (b >= 0 && b < n && know.(b)) then
                failwith
                  (Printf.sprintf
                     "req1 miss: me=%d src=%d req_phase=%d my_phase=%d my_stage=%d b=%d assign=%d"
                     me src phase !my_phase !my_stage b assign.(b));
              Bitarray.get y b)
        in
        T.send src (Reply1 { phase; idx; vals; part; parts })
      | Reply1 _ | Request2 _ | Reply2 _ | Full _ -> assert false
    in
    let answer_req2 src = function
      | Request2 { phase; missing } ->
        (* Short "me neither" answers go out first so that on a serialized
           link they are not stuck behind a long bit-carrying answer. *)
        Array.iter
          (fun u ->
            if not (in_heard phase u) then
              T.send src
                (Reply2
                   { phase; about = u; known = false; idx = [||]; vals = Bitarray.create 0;
                     part = 0; parts = 1 }))
          missing;
        Array.iter
          (fun u ->
            if in_heard phase u then begin
              let idx = requests_sent.(phase).(u) in
              send_batched src
                (fun ~idx ~vals ~part ~parts ->
                  Reply2 { phase; about = u; known = true; idx; vals; part; parts })
                idx
                (fun b -> Bitarray.get y b)
            end)
          missing
      | Request1 _ | Reply1 _ | Reply2 _ | Full _ -> assert false
    in
    let handle (src, m) =
      match m with
      | Request1 { phase; _ } ->
        (* Answerable only once my own stage 1 of that phase is done (the
           paper's "q waits until it is at least in stage 2 of phase p"). *)
        if phase < !my_phase || (phase = !my_phase && !my_stage >= 2) then answer_req1 src m
        else pending_req1 := (src, m) :: !pending_req1
      | Reply1 { phase; idx; vals; parts; _ } ->
        learn_pairs idx vals;
        let row = reply1_recv.(phase) in
        row.(src) <- row.(src) + 1;
        if row.(src) >= parts then mark_heard phase src
      | Request2 { phase; _ } ->
        if phase < !my_phase || (phase = !my_phase && !my_stage >= 3) then answer_req2 src m
        else pending_req2 := (src, m) :: !pending_req2
      | Reply2 { phase; about; known; idx; vals; parts; _ } ->
        if known then learn_pairs idx vals;
        let i = (src * k) + about in
        let row = resp2_have.(phase) in
        row.(i) <- row.(i) + 1;
        if row.(i) = parts then resp2_answered.(phase).(i) <- true
      | Full { part; bits } ->
        let asm =
          match Hashtbl.find_opt full_asm src with
          | Some a -> a
          | None ->
            let a = Wire.Assembly.create ~len:n ~b:full_payload in
            Hashtbl.add full_asm src a;
            a
        in
        if not (Wire.Assembly.complete asm) then begin
          Wire.Assembly.add asm ~part bits;
          if Wire.Assembly.complete asm then begin
            got_full := true;
            let full = Wire.Assembly.get asm in
            for b = 0 to n - 1 do
              learn b (Bitarray.get full b)
            done
          end
        end
    in
    let wait_until cond =
      while not (cond ()) do
        handle (T.receive ())
      done
    in
    let drain_pending () =
      let ready1, later1 =
        List.partition
          (fun (_, m) ->
            match m with
            | Request1 { phase; _ } -> phase < !my_phase || (phase = !my_phase && !my_stage >= 2)
            | _ -> false)
          !pending_req1
      in
      pending_req1 := later1;
      List.iter (fun (src, m) -> answer_req1 src m) (List.rev ready1);
      let ready2, later2 =
        List.partition
          (fun (_, m) ->
            match m with
            | Request2 { phase; _ } -> phase < !my_phase || (phase = !my_phase && !my_stage >= 3)
            | _ -> false)
          !pending_req2
      in
      pending_req2 := later2;
      List.iter (fun (src, m) -> answer_req2 src m) (List.rev ready2)
    in
    (* Query the bits that [want] selects, in ascending order, one source
       call per maximal run of consecutive selected bits. *)
    let query_runs want =
      let b = ref 0 in
      while !b < n do
        if want !b then begin
          let pos = !b in
          while !b < n && want !b do
            incr b
          done;
          let bits = T.query (pos, !b - pos) in
          for r = 0 to !b - pos - 1 do
            learn (pos + r) (Bitarray.get bits r)
          done
        end
        else incr b
      done
    in
    let finish () =
      query_runs (fun b -> not know.(b));
      List.iter (fun (part, bits) -> T.broadcast (Full { part; bits })) (Wire.split ~b:full_payload y);
      y
    in
    let rec phase_loop () =
      let p = !my_phase in
      (match monitor with
      | Some f -> f ~peer:me ~phase:p ~assign:(Array.copy assign) ~know:(Array.copy know)
      | None -> ());
      if !unknown <= threshold || p > max_phase then finish ()
      else begin
        (* ---- Stage 1: query my assigned unknown bits; pull the rest. ---- *)
        my_stage := 1;
        heard.(p) <- Array.make k false;
        reply1_recv.(p) <- Array.make k 0;
        query_runs (fun b -> (not know.(b)) && assign.(b) = me);
        (* Bucket my unknown bits by assignee, each bucket in ascending bit
           order: count per assignee, then fill in one pass. *)
        let fill = Array.make k 0 in
        for b = 0 to n - 1 do
          if not know.(b) then fill.(assign.(b)) <- fill.(assign.(b)) + 1
        done;
        let wants = Array.map (fun c -> Array.make c 0) fill in
        Array.fill fill 0 k 0;
        for b = 0 to n - 1 do
          if not know.(b) then begin
            let q = assign.(b) in
            wants.(q).(fill.(q)) <- b;
            fill.(q) <- fill.(q) + 1
          end
        done;
        requests_sent.(p) <- wants;
        for q = 0 to k - 1 do
          if q <> me then begin
            let idx = wants.(q) in
            let total = Array.length idx in
            let parts = max 1 ((total + cap - 1) / cap) in
            for part = 0 to parts - 1 do
              let lo = part * cap in
              let len = max 0 (min cap (total - lo)) in
              T.send q (Request1 { phase = p; idx = Array.sub idx lo len; part; parts })
            done
          end
        done;
        my_stage := 2;
        drain_pending ();
        (* ---- Stage 2: hear from k-t peers (incl. self). ---- *)
        wait_until (fun () -> heard_count.(p) >= quorum_others || !unknown = 0);
        if !unknown = 0 then begin
          my_phase := p + 1;
          finish ()
        end
        else begin
          let missing =
            Array.of_seq
              (Seq.filter (fun q -> q <> me && not (in_heard p q)) (Seq.init k Fun.id))
          in
          if Array.length missing = 0 then begin
            (* Heard everyone: nothing to ask. *)
            my_stage := 3;
            drain_pending ();
            my_phase := p + 1;
            my_stage := 1;
            drain_pending ();
            phase_loop ()
          end
          else begin
            resp2_have.(p) <- Array.make (k * k) 0;
            resp2_answered.(p) <- Array.make (k * k) false;
            T.broadcast (Request2 { phase = p; missing });
            my_stage := 3;
            drain_pending ();
            (* ---- Stage 3: collect k-t answers (or be rescued). ----
               A responder counts as complete once it has answered about
               every missing peer; with the Theorem 2.13 fast path, a
               missing peer whose own slow reply has arrived no longer
               needs anybody's answer. *)
            let heard_p = heard.(p) and answered = resp2_answered.(p) in
            let nmissing = Array.length missing in
            let enough_responders () =
              let count = ref 0 in
              for q = 0 to k - 1 do
                if q <> me then begin
                  (* q is complete when no missing peer still needs its answer. *)
                  let base = q * k in
                  let j = ref 0 in
                  while
                    !j < nmissing
                    &&
                    let u = missing.(!j) in
                    (fast_path && heard_p.(u)) || answered.(base + u)
                  do
                    incr j
                  done;
                  if !j = nmissing then incr count
                end
              done;
              !count >= quorum_others
            in
            wait_until (fun () ->
                enough_responders ()
                || (fast_path && !unknown = 0)
                || (!got_full && !unknown = 0));
            (* ---- Re-assign what is still unknown. ---- *)
            if !unknown = 0 then begin
              my_phase := p + 1;
              finish ()
            end
            else begin
              for b = 0 to n - 1 do
                if not know.(b) then assign.(b) <- reassign_rule ~k ~phase:p b
              done;
              my_phase := p + 1;
              my_stage := 1;
              drain_pending ();
              phase_loop ()
            end
          end
        end
      end
    in
    phase_loop ()
end

let core ?(fast_path = true) () : (module Transport.CORE) =
  (module struct
    let name = if fast_path then name else name ^ "-nofp"
    let supports = supports

    module Msg = Msg

    module Process (T : Transport.S with type msg = Msg.t) = struct
      module P = Process (T)

      let run inst me = P.run_with ~fast_path inst me
    end
  end)

module ST = Sim_transport.Make (Msg)
module SP = Process (ST)

let run_with ?(opts = Exec.default) ?(fast_path = true) ?monitor inst =
  let cfg = Exec.build_config inst opts in
  let protocol = if fast_path then name else name ^ "-nofp" in
  Exec.finish ~protocol inst (ST.run_sim cfg (SP.run_with ~fast_path ?monitor inst))

let run ?opts inst = run_with ?opts ~fast_path:true inst
