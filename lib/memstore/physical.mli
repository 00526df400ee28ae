(** A word-addressed physical store, backed by [Bytes].

    This is the simulation's ground truth: every store in the hierarchy
    (core, drum, disk) is one of these.  Words are 64-bit; addresses are
    word offsets from 0.  Out-of-range accesses raise {!Bound_violation},
    modelling the paper's "address bound violation detection" hardware
    facility (Special Hardware Facilities, ii). *)

type t

exception Bound_violation of { store : string; address : int; extent : int }
(** Raised on any access outside [0, extent). *)

val create : name:string -> words:int -> t
(** A zero-filled store of [words] 64-bit words. *)

val name : t -> string

val size : t -> int
(** Extent in words. *)

val read : t -> int -> int64

val write : t -> int -> int64 -> unit

val read_int : t -> int -> int
(** [read] as a native int, without boxing: for bookkeeping words
    (tags, links, sizes) that hold ints. *)

val write_int : t -> int -> int -> unit

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Copy [len] words.  Handles overlapping ranges within one store
    correctly (like [Bytes.blit]). *)

val fill : t -> off:int -> len:int -> int64 -> unit

val reads : t -> int
(** Number of word reads performed, for access accounting. *)

val writes : t -> int
(** Number of word writes performed ([blit]/[fill] count per word). *)
