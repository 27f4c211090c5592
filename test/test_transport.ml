(* Transport conformance: the simulator runtime and the socket runtime must
   agree on everything that is schedule-invariant.

   Each scenario runs the same registry protocol on the same instance twice —
   once through [Exec] (the deterministic simulator) and once through
   [Dr_net.Runner] (k forked OS processes over loopback, querying a real
   source server) — and asserts identical verdicts and query counts. Message
   and timing totals are NOT compared: they depend on the delivery schedule,
   which the network does not replay. The scenarios below are chosen so the
   per-peer query counts are schedule-invariant (deterministic query plans,
   crash/attack behavior not keyed on arrival order), except for the
   crash-general silent crash, whose one schedule-dependent term is
   accounted for exactly. *)

module Problem = Dr_core.Problem
module Registry = Dr_core.Registry
module Exec = Dr_core.Exec
module Crash_plan = Dr_adversary.Crash_plan
module Crash_general = Dr_core.Crash_general

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "registry lost protocol %s" name

let same_queries (sim : Problem.report) (net : Problem.report) =
  checki "q_max matches" sim.Problem.q_max net.Problem.q_max;
  checki "q_total matches" sim.Problem.q_total net.Problem.q_total;
  Alcotest.(check (float 1e-9)) "q_mean matches" sim.Problem.q_mean net.Problem.q_mean

(* Runs both transports and checks the verdicts; [queries] compares the
   two reports' query counts ([same_queries] by default). [crash] is a
   function of the instance so the plan can target its fault set. 30s of
   wall clock is an order of magnitude above what these tiny instances
   need; it only bounds the damage of a hung child. *)
let conform ?(attack = "default") ?(crash = fun _ -> Crash_plan.none) ?chaos
    ?(queries = fun _ sim net -> same_queries sim net) ~protocol ~k ~n ~t ~model ~seed () =
  let e = entry protocol in
  let inst = Problem.random_instance ~seed ~model ~k ~n ~t () in
  let crash = crash inst in
  let sim =
    e.Registry.run ~opts:(Exec.make_opts ~crash ()) ~attack inst
  in
  let net =
    Dr_net.Runner.run ~timeout:30. ~crash ?chaos (e.Registry.core ~attack inst) inst
  in
  checkb "sim verdict ok" true sim.Problem.ok;
  checkb "net verdict matches" sim.Problem.ok net.Problem.ok;
  queries inst sim net

let test_crash_general_faultfree () =
  conform ~protocol:"crash-general" ~k:5 ~n:256 ~t:0 ~model:Problem.Crash ~seed:7L ()

(* With crashed peers, crash-general's query counts depend on the schedule
   in one place. The first honest peer to finish its last phase queries the
   U bits still unknown and floods its whole array. A peer still waiting
   in that phase's stage 3 learns every bit from the flood and skips its
   own U queries (Claim 2's rescue). Every query before that point is
   fixed by the instance. U is the same for every honest peer: all of them
   know exactly the bits no crashed peer was assigned. The first finisher
   is never rescued. So two runs differ in Q by whole multiples of U, at
   most (honest - 1) of them, and each peer by at most U. Here (k=6, n=512,
   two silent crashes) U = 53; the simulator's unit-latency schedule rescues
   nobody, while a loaded loopback run can rescue one or more peers. *)
let silent inst = Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:0

let rescue_bound inst (sim : Problem.report) (net : Problem.report) =
  (* U: what each honest peer still misses when it enters its last phase *)
  let last_unknown = Array.make inst.Problem.k 0 in
  let monitor ~peer ~phase:_ ~assign:_ ~know =
    last_unknown.(peer) <- Array.fold_left (fun c b -> if b then c else c + 1) 0 know
  in
  let monitored =
    Crash_general.run_with ~opts:(Exec.make_opts ~crash:(silent inst) ()) ~monitor inst
  in
  checki "monitored run is the compared run" sim.Problem.q_total monitored.Problem.q_total;
  let honest = List.filter (Problem.honest inst) (List.init inst.Problem.k Fun.id) in
  let u = last_unknown.(List.hd honest) in
  List.iter (fun i -> checki "U is the same for every honest peer" u last_unknown.(i)) honest;
  checkb "some bits are left for the last phase" true (u > 0);
  let gap = abs (sim.Problem.q_total - net.Problem.q_total) in
  checki "q_total differs by whole rescues" 0 (gap mod u);
  checkb "at most honest - 1 rescues" true (gap / u <= List.length honest - 1);
  checkb "q_max differs by at most U" true (abs (sim.Problem.q_max - net.Problem.q_max) <= u)

let test_crash_general_silent_crash () =
  conform ~protocol:"crash-general" ~k:6 ~n:512 ~t:2 ~model:Problem.Crash ~seed:3L ~crash:silent
    ~queries:rescue_bound ()

(* An [After_queries j] crash inside a range: naive reads X as the single
   range (0, n), so each crashed peer dies mid-range. On both transports it
   must be charged exactly j bits, and every peer the same count; the net
   side is read off a source server this test owns. *)
let test_naive_crash_inside_range () =
  let e = entry "naive" in
  let k = 4 and j = 20 in
  let inst = Problem.random_instance ~seed:5L ~model:Problem.Crash ~k ~n:64 ~t:1 () in
  let crash = Crash_plan.after_queries inst.Problem.fault j in
  let src = Dr_source.Data_source.create ~k inst.Problem.x in
  let sim =
    e.Registry.run
      ~opts:(Exec.make_opts ~crash ~query_override:(Dr_source.Data_source.query_fn src) ())
      inst
  in
  let server = Dr_net.Source_server.create ~k inst.Problem.x in
  Dr_net.Source_server.start server;
  let port = Dr_net.Source_server.port server in
  let net, outcomes =
    Dr_net.Runner.run_detailed ~timeout:30. ~crash
      ~source:{ Dr_net.Runner.host = "127.0.0.1"; port }
      (e.Registry.core inst) inst
  in
  let charged = Dr_net.Source_server.stats server in
  let control = Dr_net.Source_client.connect ~port ~peer:Dr_net.Source_proto.control_peer () in
  Dr_net.Source_client.shutdown control;
  Dr_net.Source_client.close control;
  Dr_net.Source_server.stop server;
  checkb "sim verdict ok" true sim.Problem.ok;
  checkb "net verdict matches" sim.Problem.ok net.Problem.ok;
  same_queries sim net;
  for i = 0 to k - 1 do
    let q = Dr_source.Data_source.queries_by src i in
    checki (Printf.sprintf "peer %d charged the same on both transports" i) q charged.(i);
    if not (Problem.honest inst i) then begin
      checki (Printf.sprintf "crashed peer %d charged exactly j" i) j q;
      checkb (Printf.sprintf "crashed peer %d crashed on the net" i) true
        (outcomes.(i) = Dr_net.Runner.Crashed)
    end
  done

let test_byz_2cycle_silent () =
  conform ~protocol:"byz-2cycle" ~attack:"silent" ~k:6 ~n:512 ~t:2 ~model:Problem.Byzantine
    ~seed:3L ()

(* Chaos conformance: injected infrastructure faults (drops, corruption,
   lost replies, a blackout window) sit below the reliability the protocols
   assume, so a chaotic net run must still agree with the pristine
   simulator on the verdict and on every query count — the replay cache
   keeps retried queries off the Q meter. *)
let chaos spec =
  match Dr_net.Faultnet.parse_seeded spec with
  | Ok (chaos_seed, plan) -> { Dr_net.Runner.chaos_seed; plan }
  | Error e -> Alcotest.failf "bad chaos spec %S: %s" spec e

let test_chaos_conformance_crash_general () =
  conform ~protocol:"crash-general" ~k:5 ~n:256 ~t:0 ~model:Problem.Crash ~seed:7L
    ~chaos:(chaos "13:drop=0.1,corrupt=0.05,reply_loss=0.25")
    ()

let test_chaos_conformance_byz_2cycle () =
  conform ~protocol:"byz-2cycle" ~attack:"silent" ~k:6 ~n:512 ~t:2 ~model:Problem.Byzantine
    ~seed:3L
    ~chaos:(chaos "5:drop=0.05,source_blackout=3@q2,stall=1ms@p1")
    ()

let test_net_rejects_at_time_crash () =
  let e = entry "crash-general" in
  let inst = Problem.random_instance ~seed:1L ~model:Problem.Crash ~k:4 ~n:64 ~t:1 () in
  let crash = Crash_plan.staggered inst.Problem.fault ~first:0.5 ~gap:2.0 in
  match Dr_net.Runner.run ~timeout:30. ~crash (e.Registry.core inst) inst with
  | _ -> Alcotest.fail "wall-clock crash instants must be rejected"
  | exception Failure _ -> ()

let suite =
  [
    ("crash-general fault-free sim=net", `Quick, test_crash_general_faultfree);
    ("crash-general silent crash sim=net", `Quick, test_crash_general_silent_crash);
    ("byz-2cycle silent attack sim=net", `Quick, test_byz_2cycle_silent);
    ("naive crash inside a range sim=net", `Quick, test_naive_crash_inside_range);
    ("crash-general sim=net under chaos", `Quick, test_chaos_conformance_crash_general);
    ("byz-2cycle sim=net under chaos", `Quick, test_chaos_conformance_byz_2cycle);
    ("net rejects At_time crash plans", `Quick, test_net_rejects_at_time_crash);
  ]
