exception Crashed
exception Halted

module type MESSAGE = sig
  type t

  val size_bits : t -> int
  val tag : t -> string
end

type crash_spec = Never | At_time of float | After_sends of int | After_queries of int

type status = Completed | Deadlock of int list | Event_limit_reached

type arbiter = int -> int

type obs_kind = Obs_start | Obs_deliver | Obs_crash | Obs_query_reply | Obs_wake

type obs = { obs_kind : obs_kind; obs_peer : int; obs_tag : string; obs_step : int }

type config = {
  k : int;
  seed : int64;
  query_bit : peer:int -> int -> bool;
  query_latency : peer:int -> float;
  latency : src:int -> dst:int -> time:float -> size_bits:int -> float;
  link_rate : float;
  crash : int -> crash_spec;
  start_time : int -> float;
  trace : Trace.t option;
  max_events : int;
  arbiter : arbiter option;
  observer : (obs -> unit) option;
}

let default_config ~k ~query_bit =
  {
    k;
    seed = 1L;
    query_bit;
    query_latency = (fun ~peer:_ -> 0.);
    latency = (fun ~src:_ ~dst:_ ~time:_ ~size_bits:_ -> 1.);
    link_rate = infinity;
    crash = (fun _ -> Never);
    start_time = (fun _ -> 0.);
    trace = None;
    max_events = 200_000_000;
    arbiter = None;
    observer = None;
  }

type 'r outcome = {
  outputs : (float * 'r) option array;
  metrics : Metrics.t;
  status : status;
  end_time : float;
  events : int;
}

(* The peer whose fiber runs on this domain, as [Make]'s context record;
   [No_peer] outside every run. Each functor application adds its own
   constructor, so a call into one instance from a run of another finds no
   context. zone: per-domain (one slot per domain, which is why a
   [Par.map] of simulations needs no locking). *)
type running = ..
type running += No_peer

let running : running Domain.DLS.key = Domain.DLS.new_key (fun () -> No_peer)

module Make (M : MESSAGE) = struct
  (* Only the calls that suspend the fiber are effects; the handler stores
     the continuation and the event that resumes it is already scheduled
     (or, for [receive], is the next delivery). *)
  type _ Effect.t +=
    | E_receive : (int * M.t) Effect.t
    | E_query_reply : bool Effect.t
    | E_wake : unit Effect.t

  type wait =
    | Idle
    | On_receive of (int * M.t, unit) Effect.Deep.continuation
    | On_query_reply of (bool, unit) Effect.Deep.continuation
    | On_wake of (unit, unit) Effect.Deep.continuation

  type event =
    | Ev_start of int
    | Ev_deliver of { dst : int; src : int; msg : M.t }
    | Ev_crash of int
    | Ev_query_reply of { peer : int; value : bool }
    | Ev_wake of int

  (* State of one run shared by its peers. *)
  type world = {
    cfg : config;
    heap : event Heap.t;
    metrics : Metrics.t;
    clock : float array;
        (** one slot, so the clock stays flat (a [float ref] would box on
            every store) *)
    crash_spec : crash_spec array;  (** the plan of each peer, resolved once *)
    query_delay : float array;  (** [cfg.query_latency] of each peer, resolved once *)
    serialized : bool;  (** [cfg.link_rate] is finite *)
    link_free : (int * int, float) Hashtbl.t;
        (** per ordered link, when it finishes transmitting *)
    trace_on : bool;
  }

  (* The context record of one peer: what a direct call needs. *)
  type pstate = {
    id : int;
    world : world;
    mutable alive : bool;
    mutable finished : bool;
    mailbox : (int * M.t) Ring.t;
    mutable wait : wait;
    prng : Prng.t;
    mutable sends : int;
    query_budget : int;
        (** the peer dies once this many bits are charged: [j] under
            [After_queries j], [max_int] otherwise *)
  }

  type running += Peer of pstate

  let current what =
    match Domain.DLS.get running with
    | Peer p -> p
    | _ -> invalid_arg (what ^ ": called outside Sim.run")

  (* Tracing must cost nothing when off: every call site is guarded by
     [trace_on] so the closure passed here is never even allocated. *)
  let tr w f = match w.cfg.trace with None -> () | Some t -> Trace.record t (f ())

  (* A crash planned at this send or query: the peer dies at the call, which
     unwinds its fiber from the call site. *)
  let crash_here p =
    p.alive <- false;
    let w = p.world in
    if w.trace_on then tr w (fun () -> Trace.Crashed { time = w.clock.(0); peer = p.id });
    raise Crashed

  let me () = (current "Sim.me").id
  let peer_count () = (current "Sim.peer_count").world.cfg.k
  let now () = (current "Sim.now").world.clock.(0)
  let rng () = (current "Sim.rng").prng

  let note text =
    let p = current "Sim.note" in
    let w = p.world in
    if w.trace_on then tr w (fun () -> Trace.Note { time = w.clock.(0); peer = p.id; text })

  let send_from p dst msg =
    let w = p.world in
    if dst < 0 || dst >= w.cfg.k then invalid_arg "Sim.send: bad destination";
    (* [After_sends j] lets exactly [j] sends complete; the peer dies
       attempting the next one, so that send is lost. *)
    (match Array.unsafe_get w.crash_spec p.id with
    | After_sends j when p.sends >= j -> crash_here p
    | Never | At_time _ | After_sends _ | After_queries _ -> ());
    let time = w.clock.(0) in
    let size_bits = M.size_bits msg in
    let delay = w.cfg.latency ~src:p.id ~dst ~time ~size_bits in
    if not (delay >= 0.) then invalid_arg "Sim.run: negative latency";
    Metrics.on_send w.metrics p.id ~size_bits;
    if w.trace_on then
      tr w (fun () -> Trace.Sent { time; src = p.id; dst; size_bits; tag = M.tag msg });
    let arrival =
      if not w.serialized then time +. delay
      else begin
        (* Store-and-forward link serialization: each ordered link
           transmits at [link_rate] bits per time unit, one message at a
           time, in FIFO order. *)
        let free = Option.value (Hashtbl.find_opt w.link_free (p.id, dst)) ~default:0. in
        let departure = Float.max time free in
        let transmission = float_of_int size_bits /. w.cfg.link_rate in
        Hashtbl.replace w.link_free (p.id, dst) (departure +. transmission);
        departure +. transmission +. delay
      end
    in
    Heap.push w.heap ~time:arrival (Ev_deliver { dst; src = p.id; msg });
    p.sends <- p.sends + 1

  let send dst msg = send_from (current "Sim.send") dst msg

  let broadcast msg =
    let p = current "Sim.broadcast" in
    for dst = 0 to p.world.cfg.k - 1 do
      if dst <> p.id then send_from p dst msg
    done

  let receive () =
    let p = current "Sim.receive" in
    if Ring.is_empty p.mailbox then Effect.perform E_receive else Ring.pop p.mailbox

  (* One bit with every effect a query can have: its trace record, a crash
     planned at it, and the wait for a delayed reply. *)
  let query_one p i =
    let w = p.world in
    Metrics.on_queries w.metrics p.id 1;
    let value = w.cfg.query_bit ~peer:p.id i in
    if w.trace_on then
      tr w (fun () -> Trace.Queried { time = w.clock.(0); peer = p.id; index = i; value });
    if Metrics.queries w.metrics p.id >= p.query_budget then crash_here p;
    let delay = Array.unsafe_get w.query_delay p.id in
    if delay <= 0. then value
    else begin
      Heap.push w.heap ~time:(w.clock.(0) +. delay) (Ev_query_reply { peer = p.id; value });
      Effect.perform E_query_reply
    end

  (* When none of [query_one]'s effects can fire inside the range, the bits
     are charged at once and read straight from the source; [query_bit]
     sees the same calls in the same order either way. *)
  let query (pos, len) pack =
    let p = current "Sim.query" in
    let w = p.world in
    if len < 0 then invalid_arg "Sim.query: negative length";
    let id = p.id in
    if (not w.trace_on)
       && Array.unsafe_get w.query_delay id <= 0.
       && Metrics.queries w.metrics id + len < p.query_budget
    then begin
      Metrics.on_queries w.metrics id len;
      let query_bit = w.cfg.query_bit in
      pack len (fun r -> query_bit ~peer:id (pos + r))
    end
    else pack len (fun r -> query_one p (pos + r))

  let sleep d =
    let p = current "Sim.sleep" in
    let w = p.world in
    if not (d >= 0.) then invalid_arg "Sim.sleep: negative";
    Heap.push w.heap ~time:(w.clock.(0) +. d) (Ev_wake p.id);
    Effect.perform E_wake

  let die () = raise Halted

  let run_world cfg proc =
    let master = Prng.create cfg.seed in
    let serialized = cfg.link_rate <> infinity in
    let world =
      {
        cfg;
        heap = Heap.create ();
        metrics = Metrics.create cfg.k;
        clock = [| 0. |];
        crash_spec = Array.init cfg.k cfg.crash;
        query_delay = Array.init cfg.k (fun peer -> cfg.query_latency ~peer);
        serialized;
        link_free = Hashtbl.create (if serialized then 64 else 1);
        trace_on = cfg.trace <> None;
      }
    in
    let { heap; metrics; clock; crash_spec; trace_on; _ } = world in
    let peers =
      Array.init cfg.k (fun id ->
          {
            id;
            world;
            alive = true;
            finished = false;
            mailbox = Ring.create ();
            wait = Idle;
            prng = Prng.split master;
            sends = 0;
            query_budget =
              (match crash_spec.(id) with
              | After_queries j -> j
              | Never | At_time _ | After_sends _ -> max_int);
          })
    in
    let slots = Array.map (fun p -> Peer p) peers in
    (* Every resume of a fiber installs its peer's context first. *)
    let install p = Domain.DLS.set running (Array.unsafe_get slots p.id) in
    let outputs = Array.make cfg.k None in
    let events_done = ref 0 in
    (* Killing a peer: mark dead and unwind its blocked fiber if any. *)
    let kill p =
      let unwind k =
        p.wait <- Idle;
        install p;
        Effect.Deep.discontinue k Crashed
      in
      if p.alive then begin
        p.alive <- false;
        if trace_on then tr world (fun () -> Trace.Crashed { time = clock.(0); peer = p.id });
        match p.wait with
        | Idle -> ()
        | On_receive k -> unwind k
        | On_query_reply k -> unwind k
        | On_wake k -> unwind k
      end
    in
    let handler_for p =
      let open Effect.Deep in
      let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option = function
        | E_receive -> Some (fun k -> p.wait <- On_receive k)
        | E_query_reply -> Some (fun k -> p.wait <- On_query_reply k)
        | E_wake -> Some (fun k -> p.wait <- On_wake k)
        | _ -> None
      in
      {
        retc = (fun () -> ());
        exnc =
          (function
          | Crashed | Halted -> p.alive <- false
          | e -> raise e);
        effc;
      }
    in
    let start_fiber p =
      install p;
      Effect.Deep.match_with
        (fun () ->
          let out = proc p.id in
          outputs.(p.id) <- Some (clock.(0), out);
          p.finished <- true;
          if trace_on then tr world (fun () -> Trace.Terminated { time = clock.(0); peer = p.id }))
        () (handler_for p)
    in
    (* Seed the schedule: starts and timed crashes. *)
    Array.iter
      (fun p ->
        Heap.push heap ~time:(cfg.start_time p.id) (Ev_start p.id);
        match crash_spec.(p.id) with
        | At_time t0 -> Heap.push heap ~time:t0 (Ev_crash p.id)
        | Never | After_sends _ | After_queries _ -> ())
      peers;
    let status = ref Completed in
    (* Coverage observation must cost nothing when off, exactly like the
       trace guard: one boolean test per event, tags rendered only when a
       sink is installed. *)
    let obs_on = cfg.observer <> None in
    let notify ev =
      match cfg.observer with
      | None -> ()
      | Some f ->
        let obs_kind, obs_peer, obs_tag =
          match ev with
          | Ev_start i -> (Obs_start, i, "")
          | Ev_deliver { dst; msg; _ } -> (Obs_deliver, dst, M.tag msg)
          | Ev_crash i -> (Obs_crash, i, "")
          | Ev_query_reply { peer; _ } -> (Obs_query_reply, peer, "")
          | Ev_wake i -> (Obs_wake, i, "")
        in
        f { obs_kind; obs_peer; obs_tag; obs_step = !events_done - 1 }
    in
    let handle = function
      | Ev_start i ->
        let p = Array.unsafe_get peers i in
        if p.alive then start_fiber p
      | Ev_deliver { dst; src; msg } ->
        let p = Array.unsafe_get peers dst in
        if p.alive && not p.finished then begin
          Metrics.on_receive metrics dst;
          if trace_on then
            tr world (fun () -> Trace.Delivered { time = clock.(0); src; dst; tag = M.tag msg });
          match p.wait with
          | On_receive k ->
            p.wait <- Idle;
            Metrics.on_wakeup metrics dst;
            install p;
            Effect.Deep.continue k (src, msg)
          | Idle | On_query_reply _ | On_wake _ -> Ring.push p.mailbox (src, msg)
        end
      | Ev_crash i -> kill peers.(i)
      | Ev_query_reply { peer; value } ->
        let p = Array.unsafe_get peers peer in
        if p.alive then begin
          match p.wait with
          | On_query_reply k ->
            p.wait <- Idle;
            install p;
            Effect.Deep.continue k value
          | Idle | On_receive _ | On_wake _ -> ()
        end
      | Ev_wake i ->
        let p = Array.unsafe_get peers i in
        if p.alive then begin
          match p.wait with
          | On_wake k ->
            p.wait <- Idle;
            install p;
            Effect.Deep.continue k ()
          | Idle | On_receive _ | On_query_reply _ -> ()
        end
    in
    let deadlock_check () =
      let blocked =
        Array.to_list peers
        |> List.filter_map (fun p -> if p.alive && not p.finished then Some p.id else None)
      in
      if blocked <> [] then begin
        if trace_on then tr world (fun () -> Trace.Deadlocked { time = clock.(0); blocked });
        status := Deadlock blocked
      end
    in
    (match cfg.arbiter with
    | None ->
      (* Hot path: pull straight off the heap with no option/tuple boxing. *)
      let max_events = cfg.max_events in
      let rec loop () =
        if !events_done >= max_events then status := Event_limit_reached
        else if Heap.is_empty heap then deadlock_check ()
        else begin
          clock.(0) <- Heap.min_time heap;
          let ev = Heap.pop_min heap in
          incr events_done;
          if obs_on then notify ev;
          handle ev;
          loop ()
        end
      in
      loop ()
    | Some choose ->
      (* Under an arbiter, events wait in an arrival-ordered pool and the
         arbiter picks which fires next; times are purely decorative
         (monotone counter). Fresh events are drained from the heap in
         (time, seq) order, so the pool's index semantics are exactly those
         of the list it replaced and recorded scripts replay unchanged. *)
      let pending = Order_pool.create ~dummy:(Ev_crash (-1)) in
      let rec loop () =
        if !events_done >= cfg.max_events then status := Event_limit_reached
        else begin
          while not (Heap.is_empty heap) do
            Order_pool.push pending (Heap.pop_min heap)
          done;
          let count = Order_pool.length pending in
          if count = 0 then deadlock_check ()
          else begin
            let idx = choose count in
            let idx = if idx < 0 || idx >= count then 0 else idx in
            let ev = Order_pool.take pending idx in
            clock.(0) <- clock.(0) +. 1.;
            incr events_done;
            if obs_on then notify ev;
            handle ev;
            loop ()
          end
        end
      in
      loop ());
    {
      outputs;
      metrics;
      status = !status;
      end_time = clock.(0);
      events = !events_done;
    }

  (* A run inside a peer's fiber hands the slot back to that peer. *)
  let run cfg proc =
    let saved = Domain.DLS.get running in
    Fun.protect ~finally:(fun () -> Domain.DLS.set running saved) (fun () -> run_world cfg proc)
end
