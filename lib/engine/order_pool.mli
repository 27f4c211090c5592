(** An arrival-ordered pool with O(log n) removal by rank.

    The simulator's event pool under a schedule arbiter. Index [i] names the
    [i]-th live element in arrival order; {!take} removes it and keeps the
    relative order of the rest. These are exactly the index semantics of an
    append-to-the-end list from which the [i]-th element is filtered out,
    so recorded choice scripts replay unchanged.

    The representation is an append-only slot array plus a Fenwick tree of
    live flags: {!push} is amortised O(1), {!take} finds the element by
    binary lifting in O(log n). When the slots fill, the live elements are
    compacted into arrays sized twice the live count. A taken slot is
    overwritten with the [dummy] given at creation, so the pool never keeps
    a removed element reachable. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty pool. [dummy] fills unused and taken slots; it is never
    returned by {!take}. *)

val length : 'a t -> int
(** Number of live elements. O(1). *)

val push : 'a t -> 'a -> unit
(** Append an element after every live one. Amortised O(1). *)

val take : 'a t -> int -> 'a
(** [take p i] removes and returns the [i]-th live element (0-based, in
    arrival order). O(log n). Raises [Invalid_argument] unless
    [0 <= i < length p]. *)
