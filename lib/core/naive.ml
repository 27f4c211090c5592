module Msg = struct
  type t = unit

  let size_bits () = 0
  let tag () = "none"
end

let name = "naive"
let supports _ = Ok ()

module Process (T : Transport.S with type msg = Msg.t) = struct
  let run inst _i = T.query (0, Problem.n inst)
end

let core () : (module Transport.CORE) =
  (module struct
    let name = name
    let supports = supports

    module Msg = Msg
    module Process = Process
  end)

module ST = Sim_transport.Make (Msg)
module SP = Process (ST)

let run ?(opts = Exec.default) inst =
  let cfg = Exec.build_config inst opts in
  Exec.finish ~protocol:name inst (ST.run_sim cfg (SP.run inst))
