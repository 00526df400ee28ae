(** Multi-level working storage.

    "An additional complexity in fetch strategies arises when there are
    several levels of working storage, all directly accessible to the
    processor.  In such circumstances there is the problem of whether a
    given item should be fetched to a higher storage level, since this
    will be worthwhile only if the item is going to be used frequently."

    Two directly-addressable levels (fast core over bulk core) back a
    drum.  A drum fault always lands in the bulk level; the {e promotion
    strategy} decides when a bulk-resident page earns a fast-core frame.
    Accesses are charged the device cost of the level that serves them,
    so the experiment (x2) can read off the effective access time per
    strategy. *)

type promotion =
  | Always  (** promote on first touch in the bulk level *)
  | After of int  (** promote once touched this many times since arrival *)
  | Never  (** the bulk-only baseline: the fast level is left unused *)

type config = {
  fast_frames : int;
  bulk_frames : int;
  fast_us : int;  (** access cost when served from fast core *)
  bulk_us : int;  (** access cost when served from bulk core *)
  fetch_us : int;  (** drum fault cost *)
  promotion : promotion;
}

type t

val create : config -> t

val touch : t -> page:int -> unit
(** One reference.  Served from fast core if the page is there; else
    from bulk core (possibly triggering promotion); else faulted in
    from the drum.  Demotion/eviction is LRU at each level, under one
    recency order across both: a page demoted from fast core returns to
    the bulk level with its last use.  A fault costs [fetch_us] plus
    [bulk_us]. *)

val run : t -> Workload.Trace.t -> unit
(** Touch every page number in the trace. *)

val refs : t -> int

val faults : t -> int
(** Drum faults. *)

val promotions : t -> int

val fast_hits : t -> int

val elapsed_us : t -> int
(** Total access cost charged. *)

val effective_access_us : t -> float
(** [elapsed / refs]. *)
