(** The pages currently in working storage.

    Every replacement strategy chooses among exactly these pages, so
    every paging engine keeps them here: a set of ints (page numbers,
    job- or segment-tagged keys, or free frame numbers) held in one
    ascending array of fixed capacity.  Membership finds a value by
    bisection; insertion and removal find their slot the same way and
    shift the members above it by one, and {!replace} does a fault's
    removal and insertion as one shift between the two slots.  A victim
    choice reads the array directly: {!elements} lends the array itself
    once the set is full.  Demand, which skips locked pages, takes a
    {!filter}ed copy; Multiprog, which skips pages still in flight,
    hands on the lent array when none is and copies the rest when some
    are. *)

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

val replace : t -> victim:int -> int -> unit
(** [replace t ~victim x] is [remove t victim] followed by [add t x],
    the residency change of a fault that evicts: one bisection finds
    the victim, and only the members between its slot and [x]'s move.
    Raises [Invalid_argument], leaving the set unchanged, if [victim]
    is not a member or [x] is a member other than [victim]. *)

val lowest : t -> int option
(** The smallest member. *)

val elements : t -> int array
(** The members, ascending.  When the set is full this is the set's own
    array, lent: it is valid until the next {!add}, {!remove} or
    {!replace} and must not be modified, which is what
    {!Replacement.t}'s [choose_victim] promises.  Otherwise it is a
    fresh copy. *)

val filter : t -> (int -> bool) -> int array
(** The members that satisfy the predicate, ascending, in a fresh
    array. *)
