(** Constant-time fixed-size allocation: a shared lock-free slab pool
    plus per-domain magazine caches, after Blelloch & Wei's wait-free
    fixed-size allocator and Bonwick's magazine layer.

    The managed region is [slots * slot_words] words starting at
    [base].  At creation the slots are sliced into {e magazines} —
    arrays of at most [magazine] slot indices — and pushed onto a
    shared {!Freestack}.  Each cache (one per domain, or one per shard
    in the deterministic sharded engines) holds up to two magazines
    privately: the common-case [alloc]/[free] touch only the owning
    cache, and only an empty/full magazine boundary costs a CAS on the
    shared pool.  No operation takes a lock and no operation is
    proportional to the number of live or free blocks.

    Determinism: a cache used by a single thread of control performs a
    fixed sequence of private-state steps and LIFO pool transfers, so
    allocation addresses are a pure function of the call sequence.
    The sharded engines rely on this — each shard owns a private
    allocator, so results cannot depend on how shards map to domains,
    and a restarted shard rebuilds its allocator by replaying the calls
    before its checkpoint.

    Double frees are not detected (the constant-time design has no
    per-slot headers); freeing an address twice corrupts accounting
    exactly as it would in the paper's systems.  Addresses outside the
    region or misaligned to [slot_words] are rejected. *)

type t
(** The shared state: region geometry plus the lock-free magazine
    pool.  Safe to share across domains. *)

type cache
(** A private front for one domain (or one shard).  NOT safe to share
    across domains — create one per worker with {!cache}. *)

type stats = {
  allocs : int;      (** successful allocations through this cache *)
  frees : int;       (** frees through this cache *)
  refills : int;     (** magazines pulled from the shared pool *)
  flushes : int;     (** full magazines returned to the shared pool *)
  failures : int;    (** allocations that found the pool empty *)
}

val create : ?base:int -> ?magazine:int -> slots:int -> slot_words:int -> unit -> t
(** [create ~slots ~slot_words ()] manages [slots] blocks of
    [slot_words] words each, at addresses [base + i * slot_words].
    [magazine] (default 64) bounds the slot indices per magazine.
    Raises [Invalid_argument] if [slots < 1], [slot_words < 1] or
    [magazine < 1]. *)

val cache : t -> cache
(** A fresh private cache over the shared pool.  Starts empty: the
    first allocation pulls a magazine from the pool. *)

val alloc : cache -> int option
(** The word address of a free block, or [None] if the shared pool and
    both private magazines are exhausted.  O(1); at most one pool pop. *)

val free : cache -> int -> unit
(** Return a block to the owning cache.  O(1); at most one pool push.
    Raises [Invalid_argument] if the address is outside the region or
    not slot-aligned. *)

val stats : cache -> stats

val total_stats : t -> stats
(** Sums over every cache ever created from [t].  Exact when all
    caches are quiescent (e.g. after joining their domains). *)

val slots : t -> int

val slot_words : t -> int

val base : t -> int
