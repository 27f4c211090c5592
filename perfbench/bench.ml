(* The repository benchmark: one workload, one seed, a closed loop of
   Download operations (one process, one operation outstanding, a single
   domain). Every timing is divided by a host-speed reference kernel timed
   right after each operation, so the gated figures are in reference units
   and host drift cancels. See README.md next to this file.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints a [fingerprint] line, a [diagnostics] line and, last, one JSON
   object {correct, attempted, failed, metrics}. [--trace 0] reports the
   end-to-end metrics from the untraced [Registry.run] /
   [Check.run_scenario] path; [--trace 1] reports the per-layer metrics of a
   traced run and writes its spans under perfbench/out. Exits 1 if any operation
   fails its correctness check. *)

module Problem = Dr_core.Problem
module Registry = Dr_core.Registry
module Exec = Dr_core.Exec
module Transport = Dr_core.Transport
module Spec = Dr_core.Spec
module Sim_transport = Dr_core.Sim_transport
module Byz_2cycle = Dr_core.Byz_2cycle
module Sim = Dr_engine.Sim
module Prng = Dr_engine.Prng
module Explore = Dr_engine.Explore
module Latency = Dr_adversary.Latency
module Crash_plan = Dr_adversary.Crash_plan
module Data_source = Dr_source.Data_source
module Segment = Dr_source.Segment
module Check = Dr_check.Check
module Repro = Dr_check.Repro
module Invariant = Dr_check.Invariant
module Runner = Dr_net.Runner
module Source_server = Dr_net.Source_server

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

type kind =
  | Simulated of Crash_plan.descriptor  (** [Registry.run] on the heap scheduler *)
  | Checked  (** [Check.run_scenario] under [Explore.random] with the coverage probe *)
  | Networked  (** [Runner.run] against a benchmark-owned [Source_server] *)

type workload = {
  name : string;
  protocol : string;
  attack : string;
  k : int;
  n : int;
  t : int;
  kind : kind;
  pool : int;  (** distinct instances per run; the timed loop cycles through them *)
  net_layer : bool;  (** its traced run also traces [net_probe] *)
}

let workloads =
  [
    { name = "sim-byz"; protocol = "byz-2cycle"; attack = "nearmiss"; k = 64; n = 4096; t = 8;
      kind = Simulated Crash_plan.No_crash; pool = 32; net_layer = true };
    { name = "sim-crash"; protocol = "crash-general"; attack = "default"; k = 16; n = 2048;
      t = 6; kind = Simulated (Crash_plan.Mid_broadcast 2); pool = 32; net_layer = false };
    { name = "check-byz"; protocol = "byz-2cycle"; attack = "nearmiss"; k = 64; n = 4096; t = 8;
      kind = Checked; pool = 48; net_layer = false };
  ]

(* The socket runtime's layer probe, run by the traced [sim-byz] run: the
   same protocol and attack as OS processes over loopback. Not a gated
   workload of its own; see README.md, "Why there is no net workload". *)
let net_probe =
  { name = "net-byz"; protocol = "byz-2cycle"; attack = "nearmiss"; k = 3; n = 2048; t = 1;
    kind = Networked; pool = 8; net_layer = false }

(* Instance [i] of a run: a pure function of the seed. *)
let instance_seed ~seed i = Int64.(add (mul (of_int seed) 1_000_003L) (of_int (i + 1)))

let instances (w : workload) (entry : Registry.entry) ~seed =
  Array.init w.pool (fun i ->
      Problem.random_instance ~seed:(instance_seed ~seed i) ~model:entry.Registry.model ~k:w.k
        ~n:w.n ~t:w.t ())

(* ------------------------------------------------------------------ *)
(* Host-speed reference                                               *)
(* ------------------------------------------------------------------ *)

(* A fixed kernel that uses nothing from the repo: string hashing into a
   growing table, integer mixing, list allocation and merge sort, and churn
   on a small table. Its wall time, taken around every operation, is the
   unit all gated timings are expressed in. The mix matters: alone, the
   hashing part slowed more than the workloads under host contention and
   the integer part less; together they track the workloads. *)
let ref_kernel () =
  let acc = ref 0 in
  let h = Hashtbl.create 1024 in
  for i = 0 to 3_000 do
    let s = string_of_int ((i * 2654435761) land 0xffffff) in
    Hashtbl.replace h s i;
    acc := !acc + Hashtbl.hash s
  done;
  for i = 0 to 500_000 do
    acc := ((!acc * 31) + i) lxor (!acc lsr 7)
  done;
  let l = List.init 5_000 (fun i -> (i * 2654435761) land 0xffff) in
  acc := !acc + List.length (List.sort compare l);
  let t = Hashtbl.create 64 in
  for i = 0 to 15_000 do
    let k = (i * 2654435761) land 511 in
    Hashtbl.replace t k i;
    acc := !acc + Option.value ~default:0 (Hashtbl.find_opt t ((k * 7) land 511)) + List.length [ i; k ]
  done;
  !acc + Hashtbl.length h

let ref_time () =
  (* start from an empty minor heap, so the kernel never pays for a
     collection of the op's garbage *)
  Gc.minor ();
  let t0 = now () in
  ignore (Sys.opaque_identity (ref_kernel ()));
  now () -. t0

(* [setup_s] is reported in reference seconds: wall seconds rescaled to a
   host on which the reference kernel takes exactly this long. *)
let ref_nominal_s = 0.003

(* ------------------------------------------------------------------ *)
(* Transport-boundary tracer                                          *)
(* ------------------------------------------------------------------ *)

(* The simulator runs every peer as a fiber on one thread, so the calls a
   protocol makes into its transport cut the op's wall time into regions:
   from a call's exit (or a process body's start) to the next call's entry
   is protocol self time; from a query's entry to its exit is the query path;
   everything else is the engine. In a net peer process the same regions are
   that process's protocol, query, send and receive-wait time. *)
module Tracer = struct
  let r_engine = 0
  let r_protocol = 1
  let r_send = 2
  let r_broadcast = 3
  let r_receive = 4
  let r_query = 5
  let region_names = [| "engine"; "protocol"; "send"; "broadcast"; "receive"; "query" |]
  let time = Array.make 6 0.
  let words = Array.make 6 0.

  (* last mark: wall time, minor words *)
  let mark = Array.make 2 0.
  let region = ref r_engine

  (* per-op counts: messages sent (broadcasts fanned out), bits sent,
     receives, queries *)
  let c_sends = ref 0
  let c_bits = ref 0
  let c_receives = ref 0
  let c_queries = ref 0

  (* spans, kept in memory until the run ends *)
  let cap = 1 lsl 17
  let sp_kind = Array.make cap 0
  let sp_peer = Array.make cap 0
  let sp_op = Array.make cap 0
  let sp_start = Array.make cap 0.
  let sp_end = Array.make cap 0.
  let spans = ref 0
  let op_id = ref 0

  let reset () =
    Array.fill time 0 6 0.;
    Array.fill words 0 6 0.;
    c_sends := 0;
    c_bits := 0;
    c_receives := 0;
    c_queries := 0;
    region := r_engine;
    mark.(0) <- now ();
    mark.(1) <- Gc.minor_words ()

  let switch r =
    let t = now () and w = Gc.minor_words () in
    let cur = !region in
    time.(cur) <- time.(cur) +. (t -. mark.(0));
    words.(cur) <- words.(cur) +. (w -. mark.(1));
    mark.(0) <- t;
    mark.(1) <- w;
    region := r

  let record kind peer start =
    let i = !spans in
    if i < cap then begin
      sp_kind.(i) <- kind;
      sp_peer.(i) <- peer;
      sp_op.(i) <- !op_id;
      sp_start.(i) <- start;
      sp_end.(i) <- mark.(0);
      spans := i + 1
    end

  let write_spans oc ~from =
    for i = from to !spans - 1 do
      Printf.fprintf oc "%d\t%d\t%s\t%.9f\t%.9f\n" sp_op.(i) sp_peer.(i)
        region_names.(sp_kind.(i)) sp_start.(i) sp_end.(i)
    done

  (* [Transport.S] with every call bracketed by region switches. *)
  module Wrap (M : Transport.MSG) (T : Transport.S with type msg = M.t) :
    Transport.S with type msg = M.t = struct
    type msg = M.t

    let me = T.me
    let peer_count = T.peer_count

    let call kind f =
      switch kind;
      let start = mark.(0) in
      let r = f () in
      switch r_protocol;
      if !spans < cap then record kind (T.me ()) start;
      r

    let send dst m =
      incr c_sends;
      c_bits := !c_bits + M.size_bits m;
      call r_send (fun () -> T.send dst m)

    let broadcast m =
      let fan = T.peer_count () - 1 in
      c_sends := !c_sends + fan;
      c_bits := !c_bits + (fan * M.size_bits m);
      call r_broadcast (fun () -> T.broadcast m)

    let receive () =
      incr c_receives;
      call r_receive T.receive

    let query i =
      incr c_queries;
      call r_query (fun () -> T.query i)

    let clock = T.clock
    let rng = T.rng
    let sleep = T.sleep
    let note = T.note
    let die = T.die
  end

  (* A process body bracketed as protocol time. *)
  let body run inst i =
    switch r_protocol;
    match run inst i with
    | y ->
      switch r_engine;
      y
    | exception e ->
      switch r_engine;
      raise e
end

(* ------------------------------------------------------------------ *)
(* One operation                                                      *)
(* ------------------------------------------------------------------ *)

type op = {
  report : Problem.report;
  requests : int;  (** source requests served (one round trip each) *)
  violation : string option;  (** invariant oracle, [Checked] only *)
  events : int;  (** engine events; traced simulator runs only *)
}

(* Layer counters of the traced run, summed over its operations. *)
type layers = {
  mutable l_ops : int;
  mutable l_wall : float;
  l_time : float array;  (** by tracer region *)
  l_rwords : float array;
  mutable l_sends : int;
  mutable l_bits : int;
  mutable l_receives : int;
  mutable l_queries : int;
  mutable l_events : int;
  mutable l_arbiter_calls : int;
  mutable l_arbiter_pending : int;
  mutable l_observer_s : float;
  mutable l_violations : int;
  mutable l_replay_hits : int;
  (* net: per honest child *)
  mutable l_child_body : float;
  mutable l_child_time : float array;
  mutable l_child_query_us : float list;
  mutable l_spawn_ms : float list;
}

let new_layers () =
  {
    l_ops = 0; l_wall = 0.; l_time = Array.make 6 0.; l_rwords = Array.make 6 0.;
    l_sends = 0; l_bits = 0; l_receives = 0; l_queries = 0; l_events = 0; l_arbiter_calls = 0;
    l_arbiter_pending = 0; l_observer_s = 0.; l_violations = 0; l_replay_hits = 0;
    l_child_body = 0.; l_child_time = Array.make 6 0.; l_child_query_us = []; l_spawn_ms = [];
  }

let jitter inst = Latency.jittered (Prng.create inst.Problem.seed)

let crash_of (w : workload) inst =
  match w.kind with
  | Simulated d -> Crash_plan.apply d inst.Problem.fault
  | Checked | Networked -> Crash_plan.none

(* The core instantiated over the wrapped simulator transport, driven like
   [Registry.run] drives it: [Exec.build_config], [run_sim], [Exec.finish]. *)
let traced_sim ~name (module C : Transport.CORE) inst opts =
  let module T = Sim_transport.Make (C.Msg) in
  let module P = C.Process (Tracer.Wrap (C.Msg) (T)) in
  let cfg = Exec.build_config inst opts in
  let out = T.run_sim cfg (Tracer.body P.run inst) in
  (Exec.finish ~protocol:name inst out, out.Sim.events)

let simulated (w : workload) (entry : Registry.entry) ~traced inst =
  let src = Data_source.create ~k:inst.Problem.k inst.Problem.x in
  let opts =
    Exec.make_opts ~latency:(jitter inst) ~crash:(crash_of w inst)
      ~query_override:(Data_source.query_fn src) ()
  in
  let report, events =
    if traced then
      traced_sim ~name:(Registry.name entry) (entry.Registry.core ~attack:w.attack inst) inst opts
    else (entry.Registry.run ~opts ~attack:w.attack inst, 0)
  in
  { report; requests = Data_source.total_queries src; violation = None; events }

let checked (w : workload) (entry : Registry.entry) (l : layers) ~traced inst =
  let requests = ref 0 and events = ref 0 in
  let run ?observer ~attack ~crash ~arbiter inst =
    let src = Data_source.create ~k:inst.Problem.k inst.Problem.x in
    let arbiter, observer =
      if not traced then (arbiter, observer)
      else
        ( (fun pending ->
            l.l_arbiter_calls <- l.l_arbiter_calls + 1;
            l.l_arbiter_pending <- l.l_arbiter_pending + pending;
            arbiter pending),
          Option.map
            (fun f o ->
              let t0 = now () in
              f o;
              l.l_observer_s <- l.l_observer_s +. (now () -. t0))
            observer )
    in
    let opts =
      Exec.make_opts ?observer ~crash ~arbiter ~query_override:(Data_source.query_fn src) ()
    in
    let report =
      if traced then begin
        let report, ev =
          traced_sim ~name:(Registry.name entry) (entry.Registry.core ~attack inst) inst opts
        in
        events := ev;
        report
      end
      else entry.Registry.run ~opts ~attack inst
    in
    requests := Data_source.total_queries src;
    report
  in
  let target = { (Check.of_registry ~pool:[ (w.k, w.n, w.t) ] entry) with Check.run } in
  let scenario =
    { Repro.protocol = w.protocol; attack = w.attack; k = w.k; n = w.n; t = w.t;
      seed = inst.Problem.seed; crash = Crash_plan.No_crash }
  in
  let probe = Explore.probe () in
  let c =
    Check.run_scenario ~observer:probe.Explore.observer target scenario
      ~arbiter:(Explore.random (Prng.create inst.Problem.seed))
  in
  let violation =
    Option.map
      (fun v -> "invariant " ^ Invariant.name v.Invariant.invariant ^ ": " ^ v.Invariant.detail)
      c.Check.violation
  in
  { report = c.Check.report; requests = !requests; violation; events = !events }

(* Net tracing: each peer process writes its regions, counts and spans to
   [<dir>/op<j>-peer<i>.tsv] when its body ends. *)
let net_dir = ref None

let write_peer_file ~dir ~peer =
  let oc = open_out (Printf.sprintf "%s/op%d-peer%d.tsv" dir !Tracer.op_id peer) in
  let q = ref [] in
  for i = 0 to !Tracer.spans - 1 do
    if Tracer.sp_kind.(i) = Tracer.r_query then
      q := (Tracer.sp_end.(i) -. Tracer.sp_start.(i)) :: !q
  done;
  let q = Array.of_list !q in
  Array.sort Float.compare q;
  let q50 = if Array.length q = 0 then 0. else q.(Array.length q / 2) in
  Printf.fprintf oc "stats\t%s\t%.9f\n"
    (String.concat "\t" (Array.to_list (Array.map (Printf.sprintf "%.9f") Tracer.time)))
    q50;
  Tracer.write_spans oc ~from:0;
  close_out oc

let traced_core (module C : Transport.CORE) : (module Transport.CORE) =
  (module struct
    let name = C.name
    let supports = C.supports

    module Msg = C.Msg

    module Process (T : Transport.S with type msg = Msg.t) = struct
      module P = C.Process (Tracer.Wrap (Msg) (T))

      let run inst i =
        Tracer.reset ();
        Tracer.spans := 0;
        Fun.protect
          ~finally:(fun () ->
            match !net_dir with Some dir -> write_peer_file ~dir ~peer:i | None -> ())
          (fun () -> Tracer.body P.run inst i)
    end
  end)

(* Fold one peer file into the net layer counters; returns the peer's body
   time. Shares and query latency come from honest peers only. *)
let read_peer_file (l : layers) ~honest path =
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  match String.split_on_char '\t' line with
  | "stats" :: rest when List.length rest = 7 ->
    let f = Array.of_list (List.map float_of_string rest) in
    (* region 0 of a peer process is the time before its body started *)
    let body = ref 0. in
    for r = 1 to 5 do
      body := !body +. f.(r)
    done;
    if honest then begin
      l.l_child_body <- l.l_child_body +. !body;
      for r = 1 to 5 do
        l.l_child_time.(r) <- l.l_child_time.(r) +. f.(r)
      done;
      l.l_child_query_us <- (f.(6) *. 1e6) :: l.l_child_query_us
    end;
    !body
  | _ -> failwith ("malformed peer trace " ^ path)

let networked (w : workload) (entry : Registry.entry) (l : layers) ~traced ~dir inst =
  let server = Source_server.create ~k:inst.Problem.k inst.Problem.x in
  Source_server.start server;
  let core = entry.Registry.core ~attack:w.attack inst in
  let core = if traced then traced_core core else core in
  if traced then net_dir := Some dir;
  let t0 = now () in
  let report =
    Fun.protect
      ~finally:(fun () ->
        net_dir := None;
        Source_server.stop server)
      (fun () ->
        Runner.run ~timeout:60.
          ~source:{ Runner.host = "127.0.0.1"; port = Source_server.port server }
          core inst)
  in
  let runner_wall = now () -. t0 in
  let hits = Source_server.replay_hits server in
  if traced then begin
    let slowest = ref 0. in
    for i = 0 to inst.Problem.k - 1 do
      let path = Printf.sprintf "%s/op%d-peer%d.tsv" dir !Tracer.op_id i in
      if Sys.file_exists path then
        slowest :=
          Float.max !slowest (read_peer_file l ~honest:(Problem.honest inst i) path)
    done;
    l.l_spawn_ms <- ((runner_wall -. !slowest) *. 1e3) :: l.l_spawn_ms;
    l.l_replay_hits <- l.l_replay_hits + hits
  end;
  { report; requests = Source_server.total_queries server + hits; violation = None; events = 0 }

(* ------------------------------------------------------------------ *)
(* Correctness                                                        *)
(* ------------------------------------------------------------------ *)

(* byz-2cycle is correct w.h.p. (Theorem 3.7). Its cycle-2 wait needs rho
   equal reports for every segment, so a segment that fewer than rho honest
   peers picked in cycle 1 is never covered: every honest peer then blocks
   forever and outputs nothing (DESIGN.md, "The 2-cycle waiting condition";
   the silent-deadlock defect of ROADMAP item 3). At k=64, t=8 (s=3, rho=8)
   this happens on about 1 instance in 1000. [coverage_deficit] re-executes
   an instance with a query function that records each peer's first query,
   the start of the segment it picked, and says whether some segment has
   fewer than rho honest pickers. *)
let coverage_deficit (w : workload) (entry : Registry.entry) inst =
  let k = inst.Problem.k and n = Problem.n inst in
  let s, rho = Byz_2cycle.plan ~k ~n ~t:(Problem.t inst) in
  let first = Array.make k (-1) in
  let query = Data_source.query_fn (Data_source.create ~k inst.Problem.x) in
  let query_override ~peer i =
    if first.(peer) < 0 then first.(peer) <- i;
    query ~peer i
  in
  let opts =
    match w.kind with
    | Checked ->
      Exec.make_opts ~arbiter:(Explore.random (Prng.create inst.Problem.seed)) ~query_override ()
    | Simulated _ | Networked ->
      Exec.make_opts ~latency:(jitter inst) ~crash:(crash_of w inst) ~query_override ()
  in
  ignore (entry.Registry.run ~opts ~attack:w.attack inst);
  let spec = Segment.make ~n ~s in
  let pickers = Array.make s 0 in
  Array.iteri
    (fun p i ->
      if Problem.honest inst p && i >= 0 then begin
        let g = Segment.of_bit spec i in
        pickers.(g) <- pickers.(g) + 1
      end)
    first;
  s > 1 && Array.exists (fun c -> c < rho) pickers

type outcome =
  | Output  (** every honest peer output X, within the spec's Q bound *)
  | Coverage_event  (** byz-2cycle's w.h.p. failure event, see [coverage_deficit] *)
  | Failure of string

(* [deficit] is [coverage_deficit] for the op's instance, forced only when
   the op ended with every honest peer blocked. *)
let verdict (w : workload) (entry : Registry.entry) inst (r : op) ~deficit =
  let all_honest_blocked () =
    match r.report.Problem.status with
    | Sim.Deadlock blocked ->
      List.for_all
        (fun i -> (not (Problem.honest inst i)) || List.mem i blocked)
        (List.init inst.Problem.k Fun.id)
    | Sim.Completed | Sim.Event_limit_reached -> false
  in
  if
    not
      (Spec.within entry.Registry.spec ~k:inst.Problem.k ~n:(Problem.n inst) ~t:(Problem.t inst)
         ~b:inst.Problem.b ~measured:r.report.Problem.q_max)
  then Failure (Printf.sprintf "Q=%d above the spec bound" r.report.Problem.q_max)
  else if r.report.Problem.ok then
    match r.violation with Some v -> Failure v | None -> Output
  else if
    w.kind <> Networked && w.protocol = Byz_2cycle.name && all_honest_blocked ()
    && Lazy.force deficit
  then Coverage_event
  else Failure "wrong or missing honest output"

(* The figures an instance must reproduce exactly on every execution. *)
let same_counts ~virtual_time (a : op) (b : op) =
  a.report.Problem.q_max = b.report.Problem.q_max
  && a.report.Problem.msgs = b.report.Problem.msgs
  && a.requests = b.requests
  && ((not virtual_time) || Float.equal a.report.Problem.time b.report.Problem.time)

(* ------------------------------------------------------------------ *)
(* Statistics and output                                              *)
(* ------------------------------------------------------------------ *)

let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let median xs = quantile xs 0.5
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         ms)
  ^ "}"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* ------------------------------------------------------------------ *)
(* The run                                                            *)
(* ------------------------------------------------------------------ *)

type sample = {
  wall : float;
  ref_s : float;  (** the reference kernel's time right after the op *)
  minor : int;
  major : int;
}

(* One workload's instances and the first execution of each. *)
type ctx = {
  w : workload;
  entry : Registry.entry;
  pool : Problem.instance array;
  first : (op * float) option array;  (** first result and bytes allocated *)
  deficit : bool Lazy.t array;  (** [coverage_deficit] of each instance *)
}

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline
        ("unknown workload " ^ !workload ^ " (known: "
        ^ String.concat ", " (List.map (fun w -> w.name) workloads)
        ^ ")");
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let traced_run = !trace = 1 in
  let seed = !seed in
  let dir = Filename.concat "perfbench/out" w.name in
  if traced_run then begin
    mkdir_p dir;
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  end;
  Printf.printf
    "fingerprint {\"cores\": %d, \"ocaml\": %S, \"OCAMLRUNPARAM\": %S, \"domains\": 1, \
     \"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %d}\n%!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"")
    w.name seed (json_number !seconds) !trace;
  let layers = new_layers () in
  let failures = ref [] in
  let coverage_events = ref 0 in
  let attempted = ref 0 in
  let fail msg =
    failures := msg :: !failures;
    Printf.printf "FAIL %s\n%!" msg
  in
  let judge ctx ~what j r =
    match verdict ctx.w ctx.entry ctx.pool.(j) r ~deficit:ctx.deficit.(j) with
    | Output -> ()
    | Coverage_event -> incr coverage_events
    | Failure e -> fail (what ^ ": " ^ e)
  in
  let execute ctx ~traced inst =
    match ctx.w.kind with
    | Simulated _ -> simulated ctx.w ctx.entry ~traced inst
    | Checked -> checked ctx.w ctx.entry layers ~traced inst
    | Networked -> networked ctx.w ctx.entry layers ~traced ~dir inst
  in
  let check ctx ~traced ~what j r bytes =
    judge ctx ~what j r;
    match ctx.first.(j) with
    | None -> ctx.first.(j) <- Some (r, bytes)
    | Some (r0, _) ->
      let virtual_time = match ctx.w.kind with Networked -> false | _ -> true in
      if not (same_counts ~virtual_time r0 r) then
        fail
          (Printf.sprintf "%s: Q/M/T/requests differ from the instance's first execution%s" what
             (if traced then " (traced vs untraced)" else ""))
  in
  (* Set-up: registry lookup, instance generation and one warm-up op
     (which starts the source server on the net runtime). Returns the
     set-up's wall time over the reference timed right after it. *)
  let setup w () =
    incr attempted;
    let t0 = now () in
    let entry = Registry.find_exn w.protocol in
    let pool = instances w entry ~seed in
    let ctx =
      { w; entry; pool; first = Array.make w.pool None;
        deficit = Array.map (fun inst -> lazy (coverage_deficit w entry inst)) pool }
    in
    let warm = execute ctx ~traced:false ctx.pool.(0) in
    let wall = now () -. t0 in
    let ref_s = ref_time () in
    judge ctx ~what:"warm-up" 0 warm;
    (ctx, wall /. ref_s)
  in
  let run_op ctx ~traced j =
    incr attempted;
    let g0 = Gc.quick_stat () in
    let b0 = Gc.allocated_bytes () in
    let t0 = now () in
    if traced then begin
      Tracer.op_id := !attempted;
      Tracer.reset ()
    end;
    let r = execute ctx ~traced ctx.pool.(j) in
    let t1 = now () in
    if traced then Tracer.switch Tracer.r_engine;
    let b1 = Gc.allocated_bytes () in
    let g1 = Gc.quick_stat () in
    let ref_s = ref_time () in
    check ctx ~traced ~what:(Printf.sprintf "op %d (instance %d)" !attempted j) j r (b1 -. b0);
    ( r,
      { wall = t1 -. t0; ref_s;
        minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
        major = g1.Gc.major_collections - g0.Gc.major_collections } )
  in
  (* The closed loop: whole passes over the pool until [secs] have passed,
     so every instance weighs the same in each figure. *)
  let loop ctx ~traced secs =
    let stop = now () +. secs in
    let samples = ref [] in
    let j = ref 0 in
    while !j = 0 || !j mod ctx.w.pool <> 0 || now () < stop do
      let r, s = run_op ctx ~traced (!j mod ctx.w.pool) in
      (match ctx.w.kind with
      | Simulated _ | Checked when traced ->
        let l = layers in
        l.l_ops <- l.l_ops + 1;
        l.l_wall <- l.l_wall +. s.wall;
        for g = 0 to 5 do
          l.l_time.(g) <- l.l_time.(g) +. Tracer.time.(g);
          l.l_rwords.(g) <- l.l_rwords.(g) +. Tracer.words.(g)
        done;
        l.l_sends <- l.l_sends + !Tracer.c_sends;
        l.l_bits <- l.l_bits + !Tracer.c_bits;
        l.l_receives <- l.l_receives + !Tracer.c_receives;
        l.l_queries <- l.l_queries + !Tracer.c_queries;
        l.l_events <- l.l_events + r.events;
        if r.violation <> None then l.l_violations <- l.l_violations + 1
      | _ -> ());
      samples := s :: !samples;
      incr j
    done;
    List.rev !samples
  in
  (* Each op against the mean of the references timed just before and just
     after it, so host speed is sampled on both sides of the op. *)
  let op_ref samples =
    let a = Array.of_list samples in
    List.init (Array.length a) (fun i ->
        a.(i).wall /. ((a.(max 0 (i - 1)).ref_s +. a.(i).ref_s) /. 2.))
  in
  let first_pass ctx f =
    mean (Array.to_list (Array.map (function Some (r, bytes) -> f r bytes | None -> nan) ctx.first))
  in
  let host samples =
    let refs = List.map (fun s -> s.ref_s *. 1e3) samples in
    ( median refs,
      (quantile refs 0.75 -. quantile refs 0.25) /. median refs,
      float_of_int (List.length samples) /. List.fold_left (fun a s -> a +. s.wall) 0. samples )
  in
  let result metrics =
    let failed = List.length !failures in
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
      (failed = 0) !attempted failed (json_metrics metrics);
    exit (if failed = 0 then 0 else 1)
  in
  let setups = List.init 11 (fun _ -> setup w ()) in
  let ctx = fst (List.hd setups) in
  let inputs =
    Digest.to_hex
      (Digest.string
         (String.concat "/"
            (Array.to_list
               (Array.map (fun i -> Dr_source.Bitarray.to_string i.Problem.x) ctx.pool))))
  in
  if not traced_run then begin
    let samples = loop ctx ~traced:false !seconds in
    let ratios = op_ref samples in
    let setup_s = List.map (fun (_, ratio) -> ratio *. ref_nominal_s) setups in
    let ref_p50, ref_iqr, wall_ops = host samples in
    let heap_peak =
      float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6
    in
    Printf.printf
      "diagnostics {\"inputs\": %S, \"samples\": %d, \"host.ref_ms.p50\": %s, \
       \"host.ref_ms.iqr\": %s, \"host.wall_ops_per_s\": %s, \"coverage_events\": %d, \
       \"setups\": [%s]}\n%!"
      inputs (List.length samples) (json_number ref_p50) (json_number ref_iqr)
      (json_number wall_ops) !coverage_events
      (String.concat ", " (List.map json_number setup_s));
    let attempted = float_of_int !attempted in
    let without_output = float_of_int (List.length !failures + !coverage_events) in
    result
      [
        ("setup_s", median setup_s, "s");
        ( "ops_per_ref_s",
          float_of_int (List.length samples) /. List.fold_left ( +. ) 0. ratios,
          "ops/ref-s" );
        ("op_ref.p50", median ratios, "ref");
        ("op_ref.p90", quantile ratios 0.9, "ref");
        ("alloc_mb_per_op", first_pass ctx (fun _ bytes -> bytes /. 1e6), "MB");
        ("heap_mb.peak", heap_peak, "MB");
        ("paper.Q", first_pass ctx (fun r _ -> float_of_int r.report.Problem.q_max), "bits");
        ("paper.M", first_pass ctx (fun r _ -> float_of_int r.report.Problem.msgs), "msgs");
        ("paper.T", first_pass ctx (fun r _ -> r.report.Problem.time), "latency-units");
        ("rtts_per_op", first_pass ctx (fun r _ -> float_of_int r.requests), "round-trips");
        ("ops_ok.share", (attempted -. without_output) /. attempted, "ratio");
      ]
  end
  else begin
    (* Untraced half first (the overhead baseline, and the reference counts
       the traced executions must reproduce), then the traced half. *)
    let plain = loop ctx ~traced:false (!seconds /. 2.) in
    let spans_from = !Tracer.spans in
    let traced = loop ctx ~traced:true (!seconds /. 2.) in
    let oc = open_out (Filename.concat dir "spans.tsv") in
    output_string oc "op\tpeer\tregion\tstart_s\tend_s\n";
    Tracer.write_spans oc ~from:spans_from;
    close_out oc;
    (* The net runtime, traced inside its peer processes, on the net probe's
       own instances. *)
    let net =
      if not w.net_layer then None
      else begin
        let nctx, _ = setup net_probe () in
        Some (nctx, loop nctx ~traced:true (!seconds /. 4.))
      end
    in
    let l = layers in
    let ops = float_of_int l.l_ops in
    let per_op x = float_of_int x /. ops in
    let share x = x /. l.l_wall in
    let engine_s =
      l.l_wall -. l.l_time.(Tracer.r_protocol) -. l.l_time.(Tracer.r_query) -. l.l_observer_s
    in
    let child_share r = if l.l_child_body > 0. then l.l_child_time.(r) /. l.l_child_body else 0. in
    let all = plain @ traced in
    let ref_p50, ref_iqr, _ = host all in
    let _, _, wall_ops = host plain in
    let gc_per_op f = float_of_int (List.fold_left (fun a s -> a + f s) 0 all) in
    let nall = float_of_int (List.length all) in
    let net_metric f = match net with Some (nctx, samples) -> f nctx samples | None -> 0. in
    Printf.printf
      "diagnostics {\"inputs\": %S, \"plain_ops\": %d, \"traced_ops\": %d, \"net_ops\": %d, \
       \"coverage_events\": %d, \"spans_dir\": %S}\n%!"
      inputs (List.length plain) (List.length traced)
      (match net with Some (_, s) -> List.length s | None -> 0)
      !coverage_events dir;
    result
      [
        ("engine.events_per_op", per_op l.l_events, "events");
        ("engine.self_share", share engine_s, "ratio");
        ("arbiter.calls_per_op", per_op l.l_arbiter_calls, "calls");
        ( "arbiter.pending_mean",
          (if l.l_arbiter_calls = 0 then 0.
           else float_of_int l.l_arbiter_pending /. float_of_int l.l_arbiter_calls),
          "events" );
        ("query.calls_per_op", per_op l.l_queries, "calls");
        ("query.share", share l.l_time.(Tracer.r_query), "ratio");
        ("protocol.self_share", share l.l_time.(Tracer.r_protocol), "ratio");
        ( "protocol.alloc_share",
          l.l_rwords.(Tracer.r_protocol) /. Array.fold_left ( +. ) 0. l.l_rwords,
          "ratio" );
        ("protocol.sends_per_op", per_op l.l_sends, "msgs");
        ("protocol.bits_per_op", per_op l.l_bits, "bits");
        ("protocol.receives_per_op", per_op l.l_receives, "msgs");
        ("check.observer_share", share l.l_observer_s, "ratio");
        ("check.violations", float_of_int l.l_violations, "count");
        ("gc.minor_per_op", gc_per_op (fun s -> s.minor) /. nall, "collections");
        ("gc.major_per_op", gc_per_op (fun s -> s.major) /. nall, "collections");
        ("trace.overhead", (median (op_ref traced) /. median (op_ref plain)) -. 1., "ratio");
        ("net.op_ref.p50", net_metric (fun _ s -> median (op_ref s)), "ref");
        ( "net.rtts_per_op",
          net_metric (fun nctx _ -> first_pass nctx (fun r _ -> float_of_int r.requests)),
          "round-trips" );
        ( "net.query_us.p50",
          (if l.l_child_query_us = [] then 0. else median l.l_child_query_us),
          "us" );
        ("net.query_share", child_share Tracer.r_query, "ratio");
        ("net.receive_wait_share", child_share Tracer.r_receive, "ratio");
        ("net.protocol_share", child_share Tracer.r_protocol, "ratio");
        ("net.spawn_ms", (if l.l_spawn_ms = [] then 0. else median l.l_spawn_ms), "ms");
        ("source.replay_hits", float_of_int l.l_replay_hits, "count");
        ("host.ref_ms.p50", ref_p50, "ms");
        ("host.ref_ms.iqr", ref_iqr, "ratio");
        ("host.wall_ops_per_s", wall_ops, "ops/s");
      ]
  end
