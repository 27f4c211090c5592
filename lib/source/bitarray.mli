(** Packed bit arrays.

    The input array [X] of the DR model, the peers' output arrays, and the
    bit strings exchanged for segments are all values of this type. Unused
    padding bits are kept at zero, so structural equality and hashing work on
    the content.

    Costs are for [n]-bit arguments. [sub], [blit] and [append] work a byte
    at a time at any bit offset (shift and mask), not one [get]/[set] per
    bit. *)

type t

val create : int -> t
(** [create n] is an all-zeros array of [n] bits. O(n/8). *)

val length : t -> int

val get : t -> int -> bool
(** O(1). Raises [Invalid_argument] outside [0, length). *)

val set : t -> int -> bool -> unit
(** O(1). Raises [Invalid_argument] outside [0, length). *)

val copy : t -> t
val equal : t -> t -> bool
val compare : t -> t -> int
(** [copy], [equal] and [compare] are O(n/8). *)

val random : Dr_engine.Prng.t -> int -> t
(** Uniform random array of the given length: one [Prng.bool] draw per
    bit, in index order. *)

val of_string : string -> t
(** From a ['0']/['1'] string. Raises [Invalid_argument] on other chars. *)

val to_string : t -> string

val init : int -> (int -> bool) -> t
(** [init n f] has bit [i] = [f i]. [f] is called exactly once per index,
    in ascending order [0, 1, …, n-1] — protocols pass a function that
    queries the source, so this order is the order of their queries (and
    of an [After_queries] crash point). The results are packed eight to a
    byte store. *)

val sub : t -> pos:int -> len:int -> t
(** Extract a contiguous slice (the paper's segment string [X[j]]).
    O(len/8). *)

val blit : src:t -> dst:t -> pos:int -> unit
(** Write [src] into [dst] starting at bit [pos], leaving the other bits
    of [dst] unchanged. O(length src / 8). *)

val append : t -> t -> t
(** O((length a + length b) / 8). *)

val first_diff : t -> t -> int option
(** First index where the two arrays differ (the decision tree's "separating
    index"), or [None] if equal. Arrays must have equal length. O(i/8) for
    a first difference at [i]. *)

val count_ones : t -> int
(** O(n/8), by a byte popcount table. *)

val diff_count : t -> t -> int
(** Hamming distance; arrays must have equal length. O(n/8). *)

val flip : t -> int -> t
(** Copy with one bit flipped (used by lower-bound adversaries). O(n/8). *)

val pp : Format.formatter -> t -> unit
