(* Systematic schedule exploration: small instances checked against every
   (or a bounded prefix of every) delivery order. *)

open Dr_core
module Explore = Dr_engine.Explore
module Sim = Dr_engine.Sim
module Prng = Dr_engine.Prng
module Fault = Dr_adversary.Fault
module Crash_plan = Dr_adversary.Crash_plan
module Bitarray = Dr_source.Bitarray
module Check = Dr_check.Check
module Repro = Dr_check.Repro
module Registry = Dr_core.Registry

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* A toy two-peer echo as a sanity check of the DFS mechanics. *)
module Msg = struct
  type t = int

  let size_bits _ = 8
  let tag = string_of_int
end

module S = Sim.Make (Msg)

let test_dfs_covers_tiny_space () =
  (* Two peers each broadcast one message and receive one: the only
     schedule freedom is the order of the two start events and the two
     deliveries. The space is small and must be exhausted. *)
  let run ~arbiter =
    let cfg =
      {
        (Sim.default_config ~k:2 ~query_bit:(fun ~peer:_ _ -> false)) with
        arbiter = Some arbiter;
      }
    in
    let outcome =
      S.run cfg (fun i ->
          S.send (1 - i) i;
          let src, v = S.receive () in
          src = v)
    in
    Array.for_all (function Some (_, true) -> true | _ -> false) outcome.Sim.outputs
  in
  let r = Explore.dfs ~budget:10_000 ~run in
  checkb "exhausted" true r.Explore.exhausted;
  checki "no failures" 0 r.Explore.failures;
  checkb "several schedules" true (r.Explore.schedules_run > 1)

let test_dfs_finds_planted_bug () =
  (* A deliberately order-sensitive "protocol": peer 0 asserts that peer 1's
     message arrives before peer 2's. The explorer must find a schedule
     violating it, and the failing script must replay to the same failure. *)
  let run ~arbiter =
    let cfg =
      {
        (Sim.default_config ~k:3 ~query_bit:(fun ~peer:_ _ -> false)) with
        arbiter = Some arbiter;
      }
    in
    let outcome =
      S.run cfg (fun i ->
          if i = 0 then begin
            let first, _ = S.receive () in
            let _ = S.receive () in
            first = 1
          end
          else begin
            S.send 0 i;
            true
          end)
    in
    (match outcome.Sim.outputs.(0) with Some (_, ok) -> ok | None -> false)
  in
  let r = Explore.dfs ~budget:10_000 ~run in
  checkb "found the bug" true (r.Explore.failures > 0);
  (match r.Explore.first_failure with
  | Some script -> checkb "failure replays" false (run ~arbiter:(Explore.scripted script))
  | None -> Alcotest.fail "no script recorded")

let test_out_of_range_choice_is_zero () =
  (* The simulator maps an arbiter result outside [0, count) to index 0, so
     negative and past-the-end choices replay the all-zeros schedule;
     recorded scripts pad with 0 on exactly this rule. *)
  let fired arbiter =
    let seen = ref [] in
    let cfg =
      {
        (Sim.default_config ~k:3 ~query_bit:(fun ~peer:_ _ -> false)) with
        arbiter = Some arbiter;
        observer = Some (fun o -> seen := o :: !seen);
      }
    in
    ignore
      (S.run cfg (fun i ->
           S.broadcast i;
           ignore (S.receive ());
           ignore (S.receive ())));
    !seen
  in
  let zeros = fired (fun _ -> 0) in
  checkb "the choice matters" false (fired (fun n -> n - 1) = zeros);
  checkb "negative picks 0" true (fired (fun _ -> -1) = zeros);
  checkb "past the end picks 0" true (fired (fun n -> n) = zeros)

let check_crash_single ~budget ~k ~n ~after_sends =
  let x = Bitarray.random (Prng.create 3L) n in
  let fault = Fault.choose ~k (Fault.Explicit [ k - 1 ]) in
  let inst = Problem.make ~k ~x fault in
  let run ~arbiter =
    let opts =
      Exec.default
      |> Exec.with_crash (Crash_plan.mid_broadcast fault ~after_sends)
      |> Exec.with_arbiter arbiter
    in
    (Crash_single.run ~opts inst).Problem.ok
  in
  Explore.dfs ~budget ~run

let test_crash_single_schedule_prefix () =
  (* Algorithm 1 on 3 peers, 3 bits, one silent crash: check a large DFS
     prefix of the schedule tree. Every schedule must download correctly. *)
  let r = check_crash_single ~budget:1_500 ~k:3 ~n:3 ~after_sends:0 in
  checki "no failing schedule" 0 r.Explore.failures;
  checkb "ran the full budget or exhausted" true
    (r.Explore.exhausted || r.Explore.schedules_run = 1_500)

let test_crash_single_partial_broadcast_schedules () =
  (* The mid-broadcast crash (1 completed send) across schedules. *)
  let r = check_crash_single ~budget:1_500 ~k:3 ~n:3 ~after_sends:1 in
  checki "no failing schedule" 0 r.Explore.failures

let test_crash_general_schedule_prefix () =
  let k = 3 and n = 3 in
  let x = Bitarray.random (Prng.create 7L) n in
  let fault = Fault.choose ~k (Fault.Explicit [ 1 ]) in
  let inst = Problem.make ~k ~x fault in
  let run ~arbiter =
    let opts =
      Exec.default
      |> Exec.with_crash (Crash_plan.mid_broadcast fault ~after_sends:1)
      |> Exec.with_arbiter arbiter
    in
    (Crash_general.run ~opts inst).Problem.ok
  in
  let r = Explore.dfs ~budget:1_200 ~run in
  checki "no failing schedule" 0 r.Explore.failures

let test_balanced_exhaustive_two_peers () =
  (* Fault-free balanced download with 2 peers / 2 bits: tiny enough to
     exhaust the whole schedule tree. *)
  let inst = Problem.random_instance ~seed:5L ~k:2 ~n:2 ~t:0 () in
  let run ~arbiter = (Balanced.run ~opts:(Exec.with_arbiter arbiter Exec.default) inst).Problem.ok in
  let r = Explore.dfs ~budget:50_000 ~run in
  checkb "exhausted" true r.Explore.exhausted;
  checki "no failures" 0 r.Explore.failures

let test_random_arbiter_fuzz () =
  (* Random schedules beyond the DFS prefix: crash-general, 4 peers. *)
  let inst = Problem.random_instance ~seed:9L ~k:4 ~n:8 ~t:1 () in
  let ok = ref true in
  for seed = 1 to 50 do
    let opts =
      Exec.default
      |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:2)
      |> Exec.with_arbiter (Explore.random (Prng.create (Int64.of_int seed)))
    in
    if not (Crash_general.run ~opts inst).Problem.ok then ok := false
  done;
  checkb "all random schedules correct" true !ok

(* Large-pool schedule pins. The explore/check tests above run at k <= 5,
   where the arbiter's pending pool never holds more than a few dozen
   events; these run the real checker path (Check.run_scenario under
   Explore.random) where it holds hundreds to thousands, and pin the exact
   schedule: a digest of the recorded choice script, a digest of the
   observed event stream (kind, peer, tag), Q/M/T and the event count. Any
   change to the pool's index semantics (drain order, arrival order, order
   kept on removal, out-of-range clamp) moves the digests; the committed
   .repro.json files and CHECK_CAMPAIGN.json depend on those semantics. *)
let schedule_fingerprint ~protocol ~attack ~k ~n ~t ~crash =
  let target = Check.of_registry (Registry.find_exn protocol) in
  let scenario = { Repro.protocol; attack; k; n; t; seed = 1L; crash } in
  let stream = Buffer.create 4096 in
  let observer (o : Sim.obs) =
    Buffer.add_string stream
      (match o.Sim.obs_kind with
      | Sim.Obs_start -> "s"
      | Sim.Obs_deliver -> "d"
      | Sim.Obs_crash -> "c"
      | Sim.Obs_query_reply -> "q"
      | Sim.Obs_wake -> "w");
    Buffer.add_string stream (string_of_int o.Sim.obs_peer);
    Buffer.add_string stream o.Sim.obs_tag;
    Buffer.add_char stream ';'
  in
  let c =
    Check.run_scenario ~observer target scenario ~arbiter:(Explore.random (Prng.create 1L))
  in
  let r = c.Check.report in
  let script = String.concat "," (List.map string_of_int c.Check.script) in
  Printf.sprintf "events=%d Q=%d M=%d T=%.17g script=%s stream=%s"
    (List.length c.Check.script) r.Problem.q_max r.Problem.msgs r.Problem.time
    (Digest.to_hex (Digest.string script))
    (Digest.to_hex (Digest.string (Buffer.contents stream)))

let test_pin_byz_2cycle_k64 () =
  checks "byz-2cycle k=64 n=4096 t=8 nearmiss"
    "events=4096 Q=1366 M=3528 T=3834 script=45eb283de38d430ad757c3a477a6ffc1 \
     stream=814a7a99859f960361bda414cf74937a"
    (schedule_fingerprint ~protocol:"byz-2cycle" ~attack:"nearmiss" ~k:64 ~n:4096 ~t:8
       ~crash:Crash_plan.No_crash)

let test_pin_crash_general_k16 () =
  checks "crash-general k=16 n=2048 t=6 mid-broadcast:2"
    "events=3804 Q=296 M=3776 T=3505 script=10ddae151b5996cb2280ca97224e99ce \
     stream=7c3a07be3dd5be2612bd3634d98cc025"
    (schedule_fingerprint ~protocol:"crash-general" ~attack:"default" ~k:16 ~n:2048 ~t:6
       ~crash:(Crash_plan.Mid_broadcast 2))

let suite =
  [
    ("dfs exhausts a tiny space", `Quick, test_dfs_covers_tiny_space);
    ("dfs finds a planted order bug", `Quick, test_dfs_finds_planted_bug);
    ("out-of-range choice picks 0", `Quick, test_out_of_range_choice_is_zero);
    ("crash-single: silent crash, schedule prefix", `Quick, test_crash_single_schedule_prefix);
    ("crash-single: partial broadcast schedules", `Quick, test_crash_single_partial_broadcast_schedules);
    ("crash-general: schedule prefix", `Quick, test_crash_general_schedule_prefix);
    ("balanced: exhaustive 2-peer space", `Quick, test_balanced_exhaustive_two_peers);
    ("random-arbiter fuzz", `Quick, test_random_arbiter_fuzz);
    ("large-pool pin: byz-2cycle k=64", `Quick, test_pin_byz_2cycle_k64);
    ("large-pool pin: crash-general k=16", `Quick, test_pin_crash_general_k16);
  ]
