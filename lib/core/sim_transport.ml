(* The simulator transport: a thin renaming of Dr_engine.Sim.Make to the
   Transport.S vocabulary. Every function but [query] is a direct alias, and
   [query] only hands the engine the bit-array packer, so a protocol core
   instantiated over it makes exactly the simulator calls a protocol written
   against Sim.Make would, in the same order — the golden determinism tests
   pin the resulting schedules bit-exactly. *)

module Make (M : Transport.MSG) = struct
  module S = Dr_engine.Sim.Make (M)

  type msg = M.t

  let me = S.me
  let peer_count = S.peer_count
  let send = S.send
  let broadcast = S.broadcast
  let receive = S.receive
  let query range = S.query range Dr_source.Bitarray.init
  let clock = S.now
  let rng = S.rng
  let sleep = S.sleep
  let note = S.note
  let die = S.die

  let run_sim = S.run
end
