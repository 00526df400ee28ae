(** Untimed demand-paging fault simulator.

    Runs a replacement policy over a page-number reference string with a
    fixed number of frames and counts faults — the measurement behind
    Belady [1]'s comparisons and our experiment C3.  No data moves and
    no clock advances, so large parameter sweeps are cheap; the timed
    engine ({!Demand}) is used when space-time or device behaviour
    matters.

    When an observability sink is supplied, fault / cold-fault /
    eviction events are emitted with the {e reference index} as their
    timestamp (this engine has no clock); the default no-op sink costs
    one branch per emission site. *)

type result = {
  refs : int;  (** references processed *)
  faults : int;  (** includes cold (first-touch) faults *)
  cold : int;  (** faults on first touch of each page *)
  evictions : int;
}

val run :
  ?obs:Obs.Sink.t -> frames:int -> policy:Replacement.t -> Workload.Trace.t -> result
(** Process the trace with demand fetch.  [frames] must be positive.
    The [policy] must be freshly created (policies carry state).

    Raises [Invalid_argument] if the trace holds a negative page.  The
    run keeps one byte per page number up to the largest page
    referenced, as OPT's tables already do, and the resident pages in
    a {!Resident.t}: once every frame is full, its array is the
    [candidates] of each victim choice. *)

val fault_rate : result -> float
(** faults / refs (0. for an empty trace). *)

val run_writes :
  ?obs:Obs.Sink.t ->
  frames:int ->
  policy:Replacement.t ->
  write:(int -> bool) ->
  Workload.Trace.t ->
  result
(** Like {!run}, with reference [i] treated as a write when [write i]
    holds — feeds the modified-bit-sensitive policies. *)
