(** Deterministic, splittable pseudo-random generator (xoshiro256starstar).

    Every source of randomness in the simulator is drawn from one of these
    generators, seeded from a single master seed, so that a whole execution —
    scheduling, latencies, protocol coin flips — is reproducible bit-for-bit
    from [(seed, configuration)] alone. The standard library [Random] is never
    used.

    The state is 32 bytes of unboxed words, so no draw allocates beyond its
    result: [int], [bool], [bits], [shuffle] and [pick] never touch the
    heap, and [next64] and [float] allocate only the boxed number they
    return. [create] and [split] allocate the 32-byte state. *)

type t

val create : int64 -> t
(** [create seed] builds a generator from a 64-bit seed (expanded through
    splitmix64, so low-entropy seeds such as [1L] are fine). *)

val split : t -> t
(** [split g] derives an independent generator; [g] advances. Used to give
    each peer its own stream so that protocol randomness does not depend on
    scheduling order. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bits : t -> int -> int
(** [bits g w] is a uniform [w]-bit nonnegative integer, [0 <= w <= 30]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
