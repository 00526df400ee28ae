(** A host-side index over the holes of a free list (Stephenson's "fast
    fits", SOSP 1983).

    Each hole is one node keyed by an int (the allocator keys by block
    offset, or for best fit by size then offset) and carrying its size.
    Every node also holds its subtree's node count and largest size, so
    the placement queries below and {!rank} take O(log holes) time.
    The tree is a treap in flat int arrays whose priorities hash the
    key: its shape depends only on the set of keys it holds.

    The index is bookkeeping of the simulator, not of the simulated
    supervisor, whose free list stays in the store it manages; see
    {!Allocator}. *)

type t

val create : unit -> t
(** An empty index. *)

val length : t -> int

val add : t -> key:int -> size:int -> unit
(** Keys are non-negative and distinct: adding a key already held
    corrupts the index. *)

val remove : t -> int -> unit
(** Raises [Invalid_argument] if the key is not held. *)

val rank : t -> int -> int
(** The number of keys below the given key. *)

val floor : t -> int -> int
(** The greatest key at or below the given one, or -1. *)

val first : t -> from:int -> needed:int -> int
(** The least key at or above [from] whose size is at least [needed],
    or -1. *)

val last : t -> needed:int -> int
(** The greatest key whose size is at least [needed], or -1. *)

val largest : t -> int
(** The largest size held, 0 if none. *)

val fold : t -> (int -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold t f init] applies [f key size] from the greatest key down,
    so that consing yields a list in ascending key order. *)
