(** The pages currently in working storage.

    Every replacement strategy chooses among exactly these pages, so
    every paging engine keeps them here: a set of ints (page numbers,
    job- or segment-tagged keys, or free frame numbers) held in one
    ascending array of fixed capacity.  Membership, insertion and
    removal search that array by bisection.  A victim choice reads it
    directly: {!elements} lends the array itself once the set is full,
    and {!filter} copies the members an engine may evict (Demand skips
    locked pages, Multiprog pages still in flight). *)

type t

val create : capacity:int -> t
(** An empty set that can hold [capacity] members. *)

val length : t -> int

val mem : t -> int -> bool

val add : t -> int -> unit
(** Raises [Invalid_argument] if the set is full or already holds the
    value. *)

val remove : t -> int -> unit
(** Raises [Invalid_argument] if the value is not a member. *)

val lowest : t -> int option
(** The smallest member. *)

val elements : t -> int array
(** The members, ascending.  When the set is full this is the set's own
    array, lent: it is valid until the next {!add} or {!remove} and must
    not be modified, which is what {!Replacement.t}'s [choose_victim]
    promises.  Otherwise it is a fresh copy. *)

val filter : t -> (int -> bool) -> int array
(** The members that satisfy the predicate, ascending, in a fresh
    array. *)
