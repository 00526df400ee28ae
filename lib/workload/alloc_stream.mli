(** Allocation-request streams for the variable-unit allocators.

    The classic allocator benchmark shape: objects are born in sequence,
    each with a size drawn from a distribution, and die in random order;
    the stream interleaves the resulting [Alloc] and [Free] events.  {!replay} serves one stream to any allocator, so
    experiments can give every placement system the same requests. *)

type event =
  | Alloc of { id : int; size : int }
  | Free of { id : int }

type size_dist =
  | Exact of int
  | Uniform of int * int  (** inclusive bounds *)
  | Geometric of { mean : float; min_size : int }
      (** heavily small-skewed, as real allocation mixes are *)
  | Bimodal of { small : int; large : int; large_fraction : float }
      (** the paper's "place large blocks at one end, small at the other"
          scenario *)

val sample_size : Sim.Rng.t -> size_dist -> int

val live_stream :
  Sim.Rng.t -> steps:int -> size:size_dist -> target_live:int -> event list
(** Steady-state stream: at each step allocate if fewer than
    [target_live] objects are live (or with probability 1/2 when at
    target), else free a uniformly random live object.  No final frees
    are appended: the stream ends with ~[target_live] objects live,
    which is the state in which fragmentation is measured. *)

type tally = {
  placed : int;  (** [Alloc]s the allocator granted *)
  unplaced : int;  (** [Alloc]s it refused *)
  live_requested : int;  (** words requested by granted ids not yet freed *)
}

val replay : event list -> alloc:(id:int -> int -> 'a option) -> free:('a -> unit) -> tally
(** [replay events ~alloc ~free] serves a stream in order.  Each [Alloc]
    calls [alloc ~id size], and the token it grants (an address, a
    handle) is what [free] later receives for that id.  A [Free] of an
    id that was refused, already freed or never allocated is dropped. *)
