(** A page table: the "table of block addresses" of the paper's Fig. 2.

    Maps page numbers of one linear name space to the page frames
    currently holding them, and records the modification sensor bit of
    the paper's "Special Hardware Facilities (iv)" (the replacement
    policies keep their own use bits).  A page may also be locked into
    working storage (the MULTICS keep-permanently-resident directive). *)

type t

val create : pages:int -> t
(** A table for a name space of [pages] pages, all initially absent. *)

val frame_of : t -> int -> int option
(** [frame_of t page] is the frame holding [page], if resident.
    Raises [Invalid_argument] if [page] is outside the name space —
    the paper's bound-violation trap. *)

val install : t -> page:int -> frame:int -> unit
(** Make [page] resident in [frame], clearing its modified bit. *)

val evict : t -> page:int -> unit
(** Mark [page] absent.  Raises [Invalid_argument] if it was not
    resident or is locked. *)

val mark_modified : t -> page:int -> unit

val modified : t -> page:int -> bool

val lock : t -> page:int -> unit
(** Pin a resident page: {!evict} on it becomes an error, so replacement
    must never choose it. *)

val unlock : t -> page:int -> unit

val locked : t -> page:int -> bool
