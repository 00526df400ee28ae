(** Boundary-tag block encoding inside simulated memory.

    A block of [size] words (size includes both tags) is laid out as:

    {v
      +0          header: (size lsl 1) lor allocated-bit
      ...         payload (allocated blocks: words +1 .. size-2)
      +size-1     footer: same encoding as header
    v}

    The footer lets [free] find the preceding block for coalescing —
    the "boundary tag" technique.  A free block's interior words are
    not written: which blocks are free is the allocator's {!Hole_index}.
    All offsets are region-relative word offsets; the minimum
    representable block is {!min_block} words. *)

val min_block : int
(** 4: header, footer, and room for the two link words a supervisor's
    doubly-linked free list would keep in each hole. *)

val overhead : int
(** 2: tag words unavailable to the payload of an allocated block. *)

val null : int
(** -1, no block. *)

(** A tag is read and written as its encoded word, so reading one
    builds nothing on the host heap. *)

val tag : size:int -> allocated:bool -> int
(** The encoded word: [(size lsl 1) lor allocated-bit]. *)

val size : int -> int
(** The block size a tag word records. *)

val allocated : int -> bool

val read_header : Memstore.Physical.t -> base:int -> int -> int
(** The tag word of the block at region offset [off]. *)

val read_footer : Memstore.Physical.t -> base:int -> int -> int
(** [read_footer mem ~base off] reads the tag word of the block
    {e ending} just before region offset [off] (i.e. the word at
    [off - 1]). *)

val write_tags : Memstore.Physical.t -> base:int -> int -> size:int -> allocated:bool -> unit
(** Write both header and footer of the block at region offset. *)
