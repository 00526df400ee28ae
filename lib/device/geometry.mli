(** Physical timing models for a backing-store device.

    A geometry answers one question: if a channel is free at time [at]
    with its head at cylinder [head], when does servicing a request for
    [page] start, when does it finish, and where does the head end up?
    All times are microseconds on the caller's simulated clock; the
    rotating surface is phase-locked to t = 0.

    - [Fixed] charges {!Memstore.Device.transfer_us} with no positional
      state — the flat latency every engine used before this subsystem
      existed.
    - [Drum] is the ATLAS-style sector drum: the page's sector
      ([page mod sectors]) must rotate under the heads, then one sector
      time (plus per-word overhead) transfers it.
    - [Disk] adds a seek ([seek_base_us] + [seek_per_cyl_us] per
      cylinder crossed) before the rotational wait, and moves the
      head. *)

type t =
  | Fixed of { device : Memstore.Device.t }
  | Drum of { sectors : int; rotation_us : int; word_ns : int }
  | Disk of {
      cylinders : int;
      sectors : int;
      rotation_us : int;
      seek_base_us : int;
      seek_per_cyl_us : int;
      word_ns : int;
    }

val fixed : Memstore.Device.t -> t

val fixed_us : int -> t
(** [fixed_us cost] is a flat device charging exactly [cost] per
    access, independent of transfer size. *)

val drum : ?word_ns:int -> sectors:int -> rotation_us:int -> unit -> t
(** [rotation_us] must divide evenly into [sectors] slots. *)

val disk :
  ?word_ns:int ->
  cylinders:int ->
  sectors:int ->
  rotation_us:int ->
  seek_base_us:int ->
  seek_per_cyl_us:int ->
  unit ->
  t

val atlas_drum : t
(** 16 sectors, 16 ms revolution — one sector per millisecond, the
    granularity of the ATLAS drum transfers in the paper. *)

val paper_disk : t
(** A small movable-head disk: 100 cylinders of 8 sectors, 24 ms
    revolution, 10 ms base seek + 0.5 ms per cylinder. *)

val label : t -> string

val sector_of : t -> page:int -> int

val cylinder_of : t -> page:int -> int

val service : t -> at:int -> head:int -> page:int -> words:int -> int * int * int
(** [service t ~at ~head ~page ~words] is [(start, finish, head')]:
    the instant data motion for [page] begins (after any seek and
    rotational wait from [at]), the completion instant, and the head
    position afterwards.  [start >= at], [finish > start] for any
    non-degenerate geometry. *)

val start_us : t -> at:int -> head:int -> page:int -> int
(** The [start] component of {!service}, computed on its own and
    without allocating: what SATF minimises.  {!service} builds on it,
    so the two always agree.  [start_us >= at]. *)

val worst_us : t -> words:int -> int
(** Upper bound on one service from any state: full seek plus full
    revolution plus transfer.  The degraded-mode fallback charges
    this. *)
