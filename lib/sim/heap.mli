(** Binary min-heap keyed by integer priority.

    Used as the backbone of the discrete-event queue and of replacement
    policies that need cheap minimum extraction.  Ties are broken by
    insertion order (FIFO among equal keys), which event-driven simulation
    relies on for determinism. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val add : 'a t -> int -> 'a -> unit
(** [add t key v] inserts [v] with priority [key]. *)

val min : 'a t -> (int * 'a) option
(** Smallest key and its value, without removing it. *)

val min_key : 'a t -> int
(** Smallest key, without removing its entry; allocates nothing.
    Raises [Invalid_argument] if the heap is empty. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the entry with the smallest key; [None] if empty.
    Among equal keys, the earliest-inserted entry is returned first. *)
