(* The seeded-bug fixture suite: three protocol variants, each with one
   planted violation that triggers on one specific delivery order.

   Every fixture runs honest code except for a single schedule-dependent
   branch, so finding the bug is a pure schedule-search problem: these are
   the benchmark targets the campaign tests use to show the coverage-guided
   driver finds planted agreement, termination and Q-bound violations within
   a fixed budget (and to measure plain random fuzzing at the same budget
   for comparison). All pools use t = 0 so crash plans and attacks are
   inert — the schedule is the only free variable. *)

open Dr_core
module Check = Dr_check.Check
module Sim = Dr_engine.Sim
module Spec = Dr_core.Spec
module Bitarray = Dr_source.Bitarray

module Msg = struct
  type t = int

  let size_bits _ = 8
  let tag i = Printf.sprintf "seq(%d)" i
end

module S = Sim.Make (Msg)

let download n = S.query (0, n) Bitarray.init
let seq_equal = List.equal Int.equal

(* Agreement: peers 1 and 2 each send their id twice; peer 0 flips its
   output iff the four messages arrive exactly as 2, 2, 1, 1. *)
let agreement_run ?observer ~attack:_ ~crash:_ ~arbiter inst =
  let cfg = Exec.build_config inst (Exec.make_opts ?observer ~arbiter ()) in
  let n = Problem.n inst in
  let outcome =
    S.run cfg (fun i ->
        if i = 0 then begin
          let seq = List.init 4 (fun _ -> fst (S.receive ())) in
          let x = download n in
          if seq_equal seq [ 2; 2; 1; 1 ] then Bitarray.flip x 0 else x
        end
        else begin
          S.send 0 i;
          S.send 0 i;
          download n
        end)
  in
  Exec.finish ~protocol:"seeded-agreement" inst outcome

let agreement =
  {
    Check.name = "seeded-agreement";
    attacks = [ "default" ];
    model = Problem.Crash;
    spec = None;
    pool = [ (3, 2, 0) ];
    run = agreement_run;
  }

(* Termination: peers 1–3 each send their id once; if they arrive strictly
   descending (3, 2, 1) peer 0 waits for a fourth message nobody sends. *)
let termination_run ?observer ~attack:_ ~crash:_ ~arbiter inst =
  let cfg = Exec.build_config inst (Exec.make_opts ?observer ~arbiter ()) in
  let n = Problem.n inst in
  let outcome =
    S.run cfg (fun i ->
        if i = 0 then begin
          let seq = List.init 3 (fun _ -> fst (S.receive ())) in
          if seq_equal seq [ 3; 2; 1 ] then ignore (S.receive ());
          download n
        end
        else begin
          S.send 0 i;
          download n
        end)
  in
  Exec.finish ~protocol:"seeded-termination" inst outcome

let termination =
  {
    Check.name = "seeded-termination";
    attacks = [ "default" ];
    model = Problem.Crash;
    spec = None;
    pool = [ (4, 2, 0) ];
    run = termination_run;
  }

(* Q-bound: the planted spec allows n + 2 queries per peer; on arrival
   order 3, 1, 2 peer 0 re-downloads the whole input, spending 2n. The
   output stays correct, so only the spec-bound invariant can catch it. *)
let qbound_spec =
  {
    Spec.protocol = "seeded-qbound";
    theorem = "planted";
    resilience = (fun ~k:_ ~t -> t = 0);
    q_bound = (fun ~k:_ ~n ~t:_ ~b:_ -> float_of_int (n + 2));
    randomized = false;
  }

let qbound_run ?observer ~attack:_ ~crash:_ ~arbiter inst =
  let cfg = Exec.build_config inst (Exec.make_opts ?observer ~arbiter ()) in
  let n = Problem.n inst in
  let outcome =
    S.run cfg (fun i ->
        if i = 0 then begin
          let seq = List.init 3 (fun _ -> fst (S.receive ())) in
          let x = download n in
          if seq_equal seq [ 3; 1; 2 ] then ignore (download n);
          x
        end
        else begin
          S.send 0 i;
          download n
        end)
  in
  Exec.finish ~protocol:"seeded-qbound" inst outcome

let qbound =
  {
    Check.name = "seeded-qbound";
    attacks = [ "default" ];
    model = Problem.Crash;
    spec = Some qbound_spec;
    pool = [ (4, 4, 0) ];
    run = qbound_run;
  }

let all = [ agreement; termination; qbound ]

(* The invariant each fixture is seeded to violate. *)
let expected_invariant target =
  if String.equal target.Check.name "seeded-agreement" then "agreement"
  else if String.equal target.Check.name "seeded-termination" then "termination"
  else "spec-bound"
