(** A lock-free LIFO free stack (Treiber's stack over [Atomic]).

    The shared pool at the heart of the Blelloch & Wei fixed-size
    allocation design: push and free are a single compare-and-set on
    the head in the common case, so any number of domains can feed and
    drain the pool without locks.  In OCaml the nodes are immutable
    list cells and the collector never recycles a reachable cell, so
    the classic ABA hazard of CAS stacks does not arise.

    Used single-threaded the stack is strictly deterministic: pops
    return pushes in exact LIFO order.  That is what lets one sharded
    engine run bit-identically whether its shards share one domain or
    get one each — each shard owns a private stack — and lets a
    restarted shard replay its way back to the same stack. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option

val is_empty : 'a t -> bool
(** Snapshot; racy under concurrent use (like any size query on a
    lock-free structure), exact when quiescent. *)

val length : 'a t -> int
(** O(n) snapshot of the current chain; exact when quiescent. *)
