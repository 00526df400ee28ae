(** The timed demand-paging engine.

    Implements the paper's core fetch strategy: "Demand paging uses the
    address mapping device to deflect reference to a page which is not
    currently in one of the page frames.  A page fetch will then be
    initiated."  Words really move between a backing {!Memstore.Level.t}
    and a core level; fetches and write-backs are charged to the shared
    virtual clock; and the space-time product is accrued, split between
    Active and Waiting exactly as in Fig. 3.

    Predictive directives (paper: M44's two special instructions,
    MULTICS's three provisions) are accepted as {e advice}:
    {!advise_will_need} starts an asynchronous prefetch that overlaps
    with computation, {!advise_wont_need} releases a page early, and
    {!lock}/{!unlock} pin pages into working storage. *)

type config = {
  page_size : int;  (** words per page frame *)
  frames : int;  (** page frames of working storage available *)
  pages : int;  (** extent of the linear name space, in pages *)
  core : Memstore.Level.t;  (** working storage; >= frames * page_size words *)
  backing : Memstore.Level.t;  (** drum/disk; >= pages * page_size words *)
  policy : Replacement.t;  (** freshly created replacement policy *)
  tlb : Tlb.t option;  (** associative mapping memory, if any *)
  compute_us_per_ref : int;  (** program compute time per reference *)
}

type t

type recovery =
  | Mirror
      (** re-read a terminally-failed fetch over a fault-immune path
          (the duplexed copy): always succeeds, costs the extra
          queueing delay.  The default. *)
  | Surface
      (** hand the typed failure to the caller; the page stays
          non-resident *)

val create :
  ?obs:Obs.Sink.t -> ?device:Device.Model.t -> ?recovery:recovery -> config -> t
(** Page [p] of the name space lives at backing offset [p * page_size];
    frame [f] occupies core offset [f * page_size].

    With a sink, the engine reports fault / cold-fault / eviction /
    writeback and (when a TLB is configured) tlb_hit / tlb_miss events,
    stamped with the shared virtual clock.  The default no-op sink
    leaves results bit-identical and costs one branch per emission
    site.

    With a [device], transfer timing comes from the timed backing-store
    model instead of [backing]'s flat {!Memstore.Device.transfer_us}:
    fetches are demand or prefetch requests whose completion reflects
    rotational position, queueing, and scheduling policy, and evictions
    of modified pages enqueue write-back requests that compete with
    later fetches.  Without it (the default) timing is bit-identical to
    the pre-device engine. *)

val read : t -> int -> int64
(** [read t name] references word [name] of the linear name space,
    faulting it in if needed, and returns its value.  Under [Surface]
    recovery a terminal fetch failure raises [Failure]; use
    {!read_result} to handle it. *)

val write : t -> int -> int64 -> unit
(** Write reference; sets the page's modified bit, so eviction will copy
    it back to backing storage. *)

val read_result : t -> int -> (int64, Resilience.Failure.t) result
(** Like {!read}, but a terminal fetch failure (possible only under
    [Surface] recovery with a [Fail]-escalation device) returns
    [Error]: the page is not installed, and the reference can be
    retried or the job aborted by the layer above. *)

val write_result : t -> int -> int64 -> (unit, Resilience.Failure.t) result

val run : t -> Workload.Trace.t -> unit
(** Issue a read for every word address in the trace. *)

val frame_of : t -> page:int -> int option
(** Current mapping, for inspection (no cost, no fault). *)

(** {2 Predictive directives} *)

val advise_will_need : t -> page:int -> unit
(** Start fetching [page] into a free frame, overlapped with execution.
    Ignored if the page is resident, already on its way, or no frame is
    free (the directives are "essentially advisory"). *)

val advise_wont_need : t -> page:int -> unit
(** Release [page]'s frame now (write-back happens asynchronously).
    Ignored if not resident or locked. *)

val lock : t -> page:int -> unit
(** Fetch [page] if absent and pin it; replacement will never choose it.
    Raises [Invalid_argument] if pinning it would leave no evictable
    frame. *)

val unlock : t -> page:int -> unit

(** {2 Measurements} *)

val refs : t -> int

val faults : t -> int
(** Demand faults (references that had to wait for a fetch). *)

val writebacks : t -> int

val prefetches : t -> int
(** Prefetches actually issued from {!advise_will_need}. *)

val advice_releases : t -> int

val mirror_fetches : t -> int
(** Terminal fetch failures recovered by the [Mirror] re-read. *)

val hard_failures : t -> int
(** Terminal fetch failures surfaced to the caller ([Surface] mode). *)

val resident_count : t -> int

val resident_words : t -> int

val space_time : t -> Metrics.Space_time.t

val timeline : t -> Metrics.Timeline.t
(** The Fig. 3 time profile of this run (see {!Metrics.Timeline}). *)

val clock : t -> Sim.Clock.t

val tlb : t -> Tlb.t option

val page_size : t -> int

val backing : t -> Memstore.Level.t
(** The backing level: page [p] lives at offset [p * page_size].  A
    caller that built the engine from a description writes its initial
    contents here, before the first reference. *)

val device : t -> Device.Model.t option
(** The timed backing-store model, when one was supplied to {!create}
    (for end-of-run {!Device.Model.stats}). *)
