(** A variable-unit storage allocator whose bookkeeping lives {e inside}
    the simulated store it manages, as a real supervisor's must.

    Blocks carry boundary tags ({!Block}); free blocks are threaded on a
    doubly-linked, address-ordered free list whose link words occupy the
    free blocks themselves.  Freeing coalesces with both neighbours
    immediately, so the free list never contains adjacent blocks.

    Placement is pluggable ({!Policy.t}).  The simulator finds each
    policy's hole in a host-side {!Hole_index} rather than by walking
    the list, and reports what the walk would have cost.  {!compact}
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

type spec = { s_base : int; s_len : int; s_policy : Policy.t }
(** A pure description of an allocator configuration: region geometry
    plus placement strategy, with no store and no clocked state.  The
    counterpart of {!Paging.Spec.engine} for the variable-unit
    allocator — shard runners build one allocator per shard from a
    single shared description. *)

val build : ?obs:Obs.Sink.t -> ?clock:Sim.Clock.t -> Memstore.Physical.t -> spec -> t
(** Instantiate a description against a store (and optionally a virtual
    clock); equivalent to {!create} with the spec's fields. *)

val policy : t -> Policy.t

val capacity : t -> int
(** Total words managed, including tag overhead. *)

val alloc : t -> int -> int option
(** [alloc t n] requests [n >= 1] payload words.  Returns the absolute
    word address of the payload, or [None] when no sufficient hole
    exists (a failure is recorded either way). *)

val free : t -> int -> unit
(** Release a payload address previously returned by {!alloc}.  Raises
    [Invalid_argument] if the address is not a live allocation. *)

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
(** Free-list nodes a linear scan of the list examines per allocation
    attempt — the bookkeeping cost the paper weighs against
    fragmentation. *)

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
(** Walk raw memory and the free list and check every invariant
    (tags consistent, sizes tile the region, no adjacent free blocks,
    free list = hole index = free blocks of the walk, counters
    consistent).
    Raises [Failure] describing the first violation. *)
