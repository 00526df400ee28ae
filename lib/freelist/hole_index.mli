(** A host-side index over the holes of a variable-unit store
    (Stephenson's "fast fits", SOSP 1983).

    Each hole is one node keyed by an int (the allocator keys by block
    offset, or for best fit by size then offset) and carrying its size.
    Every node also holds its subtree's node count and largest size, so
    the placement queries below and {!rank} take O(log holes) time.
    The tree is a treap in flat int arrays whose priorities hash a
    node's slot, not its key, so that {!change} can re-key a node where
    it stands.  Its shape is deterministic, but depends on the history
    of edits as well as on the keys held; no query's answer does.

    The index is bookkeeping of the simulator, and {!Allocator}'s only
    record of which blocks are holes: it answers each placement query,
    and the cost of the free-list walk a supervisor would make instead
    is computed from {!rank}. *)

type t

val create : unit -> t
(** An empty index. *)

val length : t -> int

val add : t -> key:int -> size:int -> unit
(** Adds a node.  Keys are non-negative and distinct: adding a key
    already held corrupts the index. *)

val remove : t -> int -> unit
(** Raises [Invalid_argument] if the key is not held. *)

val change : t -> int -> key:int -> size:int -> unit
(** [change t k ~key ~size] gives the node of key [k] the key [key] and
    the size [size] in one descent, without moving it.  [key] may equal
    [k].  No other held key may lie between [k] and [key], [key]
    included, or the index is corrupted.  Raises [Invalid_argument] if
    [k] is not held. *)

val rank : t -> int -> int
(** The number of keys below the given key. *)

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
