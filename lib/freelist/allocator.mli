(** A variable-unit storage allocator whose blocks carry their boundary
    tags ({!Block}) {e inside} the simulated store it manages, as a real
    supervisor's must.

    The free set, the holes in address order, is kept on the host in a
    {!Hole_index}, not threaded through the holes themselves.  Freeing
    reads the neighbours' tags and coalesces with both immediately, so
    no two holes are adjacent.

    Placement is pluggable ({!Policy.t}).  The index finds each
    policy's hole and reports what a supervisor's walk of an
    address-ordered free list would have cost.  {!compact}
    implements the paper's second "course of action" against
    fragmentation — moving information to consolidate holes — using the
    autonomous storage-to-storage channel, and is only sound because
    clients reach their storage through relocatable references (see
    {!Handle_table}). *)

type t

val create :
  ?obs:Obs.Sink.t ->
  ?clock:Sim.Clock.t ->
  Memstore.Physical.t ->
  base:int ->
  len:int ->
  policy:Policy.t ->
  t
(** Manage the [len] words of [mem] starting at absolute offset [base].
    [len] must be at least {!Block.min_block}.

    With a sink, the allocator reports alloc / free (payload address
    and words), split (block address, words granted, words left),
    coalesce (merged block address and total words) and
    compaction_move events.  Timestamps come from [clock] when given
    (e.g. the owning store's virtual clock), else from a per-allocator
    operation counter. *)

val policy : t -> Policy.t

val alloc : t -> int -> int option
(** [alloc t n] requests [n >= 1] payload words.  Returns the absolute
    word address of the payload, or [None] when no sufficient hole
    exists (a failure is recorded either way). *)

val free : t -> int -> unit
(** Release a payload address previously returned by {!alloc}.  Raises
    [Invalid_argument] if the address is not a live allocation,
    checked against a host-side record of live block offsets rather
    than the tags in memory, which a freed block leaves behind. *)

val payload_size : t -> int -> int
(** Usable words of the live allocation at the given payload address
    (at least the requested size; may be larger due to splitting
    limits). *)

val live_words : t -> int
(** Payload words currently allocated. *)

val live_blocks : t -> int

val free_words : t -> int
(** Words in free blocks (including their tag words). *)

val free_block_sizes : t -> int list
(** Sizes (total words) of every free block, in address order. *)

val largest_free : t -> int
(** Largest payload currently satisfiable without compaction; 0 if none. *)

val failures : t -> int
(** Allocation requests that returned [None]. *)

val search_stats : t -> Metrics.Stats.t
(** Holes a linear scan of an address-ordered free list examines per
    allocation attempt, counted from their ranks in the index — the
    bookkeeping cost the paper weighs against fragmentation. *)

val compact : t -> Memstore.Channel.t -> relocate:(int -> int -> unit) -> unit
(** Slide every live block to the low end of the region, leaving one
    maximal hole.  [relocate old_payload new_payload] is invoked for
    each moved block so the owner can update its (single, indirect)
    reference. *)

(** {2 Introspection for tests} *)

type walk_block = { off : int; size : int; allocated : bool }

val walk : t -> walk_block list
(** Every block in address order, read from raw memory. *)

val validate : t -> unit
(** Walk raw memory and check every invariant against the walk (tags
    consistent, sizes tile the region, no adjacent free blocks, both
    hole indexes = free blocks, the next-fit rover on a hole, live-block
    record = allocated blocks, counters consistent).
    Raises [Failure] describing the first violation. *)
