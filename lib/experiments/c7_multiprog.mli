(** Experiment C7 — multiprogramming overlaps fetches with execution
    (ATLAS A.1, M44 A.2).

    Processor utilization as the degree of multiprogramming k rises,
    under a fast and a slow backing store, in two regimes: ample store
    (frames scale with k — utilization climbs toward the compute bound)
    and fixed store (adding jobs shrinks each job's share until the
    system thrashes and utilization falls again). *)

type row = {
  jobs : int;
  fetch_us : int;
  regime : string;
  cpu_utilization : float;
  total_faults : int;
  elapsed_us : int;
}

val point :
  ?obs:Obs.Sink.t ->
  ?seed:int ->
  refs_per_job:int ->
  frames:int ->
  fetch_us:int ->
  int ->
  Dsas.Multiprog.report
(** [point ~refs_per_job ~frames ~fetch_us k]: one scheduler run, the
    grid point behind {!measure} and the campaign multiprog cell.  [k]
    jobs of [refs_per_job] references over 24 pages each (their stream
    seeded by [k] and [fetch_us]) share [frames] frames under LRU, each
    fault costing [fetch_us]. *)

val measure : ?quick:bool -> ?obs:Obs.Sink.t -> ?seed:int -> unit -> row list
(** With a sink, each scheduler run reports job_start / job_stop and
    fault / eviction events; runs are spliced with {!Obs.Sink.segment} by
    accumulated elapsed time so timestamps stay monotone. *)

val run : ?quick:bool -> ?obs:Obs.Sink.t -> ?seed:int -> unit -> unit
