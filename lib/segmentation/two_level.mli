(** Two-level mapping: segment table -> page table -> frame (Fig. 4).

    "Name contiguity within segments is provided by a mapping mechanism
    using two levels of indirect addressing, through a segment table and
    a set of page tables.  A small associative memory is used to contain
    the locations of recently accessed pages in order to reduce the
    overhead caused by the mapping process." (MULTICS, appendix A.6;
    the 360/67 mapping in A.7 has the same shape.)

    This mapper counts the cost of that mechanism: each reference that
    misses the associative memory pays two working-storage accesses (one
    per table level); a hit pays none.  Pages of all segments compete
    for one pool of frames under a pluggable replacement policy, so the
    experiment F4 can sweep TLB size and read off the addressing
    overhead the paper says "would often be unacceptable" without the
    associative memory. *)

type config = {
  page_size : int;
  frames : int;  (** frames shared by the pages of every segment *)
  tlb : Paging.Tlb.t option;
  policy : Paging.Replacement.t;
}

type t

val create : config -> segments:int array -> t
(** [segments.(i)] is the length in words (at least 1) of segment [i].
    The pages of all segments are numbered in one dense key space, in
    segment order: a page's key is the number of pages in the segments
    before it plus its page number within its segment.  The policy and
    the associative memory see these keys. *)

val touch : t -> segment:int -> offset:int -> write:bool -> unit
(** One reference to [segment[offset]].  Bound-checks the offset
    ({!Descriptor.Subscript_violation}), consults the associative
    memory, then the two table levels, faulting the page in on a miss. *)

val run_segmented : t -> (int * int) array -> unit
(** Touch every (segment, offset) pair in order. *)

val refs : t -> int

val faults : t -> int

val map_accesses : t -> int
(** Working-storage accesses spent walking the two table levels. *)

val tlb : t -> Paging.Tlb.t option

val resident_pages : t -> int

val effective_access_us : t -> word_us:int -> float
(** Mean cost of one reference in core-access terms: the data access
    itself plus the amortized mapping accesses ([faults] excluded —
    fetch time is a fetch-strategy cost, not an addressing cost). *)
