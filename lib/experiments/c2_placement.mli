(** Experiment C2 — placement strategies for variable units.

    Each placement policy serves the same steady-state allocation
    streams (a small-skewed mix and a bimodal small/large mix) in a
    fixed store.  Reported: external fragmentation of the final state,
    free-list search length (the bookkeeping cost the paper trades
    against fragmentation), and how many requests could not be placed.
    The paper's candidates: best fit ("common and frequently
    satisfactory") and two-ends ("involves less bookkeeping"). *)

type outcome = {
  external_frag : float;
  holes : int;
  mean_search : float;  (** free-list nodes examined per request *)
  placed : int;  (** requests placed *)
  failures : int;  (** requests that could not be placed *)
  largest_free : int;
  live_words : int;  (** payload words allocated *)
  free_words : int;  (** words in free blocks, tags included *)
  requested : int;  (** words requested by the objects still live *)
}
(** The final state of a store that served an allocation stream. *)

val serve :
  ?obs:Obs.Sink.t ->
  words:int ->
  Freelist.Policy.t ->
  Workload.Alloc_stream.event list ->
  outcome
(** Replay a stream through {!Workload.Alloc_stream.replay} against a
    fresh boundary-tag allocator managing a [words]-word store under one
    placement policy.  A request that cannot be placed is dropped, and
    so is its later free.  Behind C1's variable-unit row, C2, C6's
    boundary-tag rows, X10 and their cells. *)

type row = { policy : string; mix : string; outcome : outcome }

type mix =
  | Small_skewed  (** geometric sizes, mean 40 words *)
  | Bimodal  (** 16 or (5%) 2048 words *)

val point :
  ?obs:Obs.Sink.t ->
  ?seed:int ->
  ?words:int ->
  ?target_live:int ->
  steps:int ->
  mix:mix ->
  Freelist.Policy.t ->
  outcome
(** One steady-state run, the grid point behind {!measure} and the
    campaign placement cell: [steps] events of [mix] churning about
    [target_live] (400) objects, served under one policy in a
    [words]-word store (65536).  The stream depends only on [seed], so
    every policy sees the same requests. *)

val measure : ?quick:bool -> ?obs:Obs.Sink.t -> ?seed:int -> unit -> row list
(** With a sink, each allocator run reports alloc / free / split /
    coalesce events; runs are spliced with {!Obs.Sink.segment} so
    timestamps stay monotone. *)

val run : ?quick:bool -> ?obs:Obs.Sink.t -> ?seed:int -> unit -> unit
