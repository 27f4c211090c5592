(** Binary min-heap keyed by [(time, sequence)].

    The event queue of the simulator. Ties on time are broken by insertion
    order, which keeps executions deterministic: two events scheduled for the
    same instant are processed in the order they were scheduled.

    The representation is struct-of-arrays (times in a flat float array,
    sequence numbers and values in parallel arrays), so [push] and
    [pop_min] allocate nothing once capacity is reached — this heap sits on
    the simulator's per-event hot path. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit
(** Schedule a value at [time]. O(log n), allocation-free at steady state. *)

val min_time : 'a t -> float
(** Time of the earliest event. Raises [Invalid_argument] when empty. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest event's value without allocating.
    Raises [Invalid_argument] when empty. *)

val peek_time : 'a t -> float option
(** Time of the earliest event without removing it. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val clear : 'a t -> unit
(** Drop all pending events. *)
