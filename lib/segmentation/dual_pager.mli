(** The MULTICS dual-page-size mechanism, operational (appendix A.6).

    "Allocation is performed by a variant of the standard paging
    technique, since in fact two different page sizes (64 and 1024
    words) are used.  Thus, at the cost of somewhat added complexity to
    the placement and replacement strategies, the loss in storage
    utilization caused by fragmentation occurring within pages can be
    reduced."

    Each segment's body is carved into large pages and its tail into
    small pages.  Working storage is split into two frame pools, one
    per size, each with its own replacement policy — the added
    complexity the paper prices in.  Fault counting is untimed (like
    {!Two_level}); what the experiment reads off is faults per class,
    words of core actually occupied, and the internal waste of the
    resident set. *)

type config = {
  small_page : int;  (** e.g. 64 *)
  large_page : int;  (** e.g. 1024; must be a multiple of [small_page] *)
  small_frames : int;
  large_frames : int;
}

type t

val create : config -> segments:int array -> t
(** [segments.(i)] is the length in words (at least 1) of segment [i].
    Each pool numbers its pages in one dense key space, in segment
    order: a page's key is the number of the pool's pages in the
    segments before it plus its page number within its segment's body
    (large pool) or tail (small pool).  Each pool's LRU sees these
    keys. *)

val touch : t -> segment:int -> offset:int -> write:bool -> unit
(** Bound-checks (raising {!Descriptor.Subscript_violation}) and faults
    the covering page (large for the body, small for the tail) into its
    pool. *)

val refs : t -> int

val small_faults : t -> int

val large_faults : t -> int

val faults : t -> int

val resident_words : t -> int
(** Core words held by resident pages of both sizes. *)

val resident_useful_words : t -> int
(** The part of {!resident_words} that lies inside segment extents —
    the rest is fragmentation within the final page of each segment. *)

val core_words : t -> int
(** Total pool capacity in words. *)
