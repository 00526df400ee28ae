(** Multicore chaos scenarios: the supervised sharded engines under
    seeded shard-kill schedules, for {!Resilience.Chaos.run}.

    Each round runs the workload fault-free at width 1 as a reference,
    then supervised at the requested width under the harness's kill
    schedule.  The supervised engine trace must come out byte-identical
    to the reference — recovery is invisible in the observable record —
    and the counters expose the verdict:

    - ["crashes"] / ["restarts"] / ["checkpoints"]: summed supervisor
      outcomes across shards;
    - ["escalated"]: 1 if a shard exhausted its restart budget (the
      drawn schedules never should — at most 2 kills per shard against
      a budget of 3);
    - ["diverged"]: 1 if the recovered trace differed from the
      reference.  CI gates on this being 0. *)

(** {2 Recovered vs fault-free}

    The one check behind X11, these scenarios and the [par_chaos]
    campaign cell: run the engine fault-free at width 1, then
    supervised at [domains] under [kills] (checkpointing every
    [checkpoint_every] steps), and compare the merged engine traces
    byte for byte. *)

type recovered = {
  trace : Obs.Event.t array;  (** merged engine trace of the supervised run *)
  outcomes : Parallel.Supervisor.outcome array;  (** in shard order *)
  supervision : Obs.Event.t array;  (** merged supervision stream *)
  identical : bool;  (** [trace] is byte-identical to the reference's *)
  crashes : int;  (** [outcomes] summed over shards *)
  restarts : int;
  checkpoints : int;
}

type 'r recovery = {
  reference : 'r;  (** report of the fault-free width-1 run *)
  reference_trace : Obs.Event.t array;
  subject : (recovered, Resilience.Failure.t) result;
      (** the supervised run, or the typed failure a shard escalated
          with (nothing emitted) *)
}

val recover_alloc :
  domains:int ->
  kills:Parallel.Supervisor.kill list ->
  checkpoint_every:int ->
  Parallel.Sharded.alloc_config ->
  Parallel.Sharded.alloc_report recovery

val recover_paging :
  domains:int ->
  kills:Parallel.Supervisor.kill list ->
  checkpoint_every:int ->
  Parallel.Sharded.paging_config ->
  Parallel.Sharded.paging_report recovery

val check_kills : quick:bool -> Parallel.Supervisor.kill list -> (unit, string) result
(** [Error] names the first kill that would never fire in the
    scenarios' 4 shards of 150 steps under [quick], 600 otherwise. *)

val scenarios : ?quick:bool -> ?domains:int -> unit -> Resilience.Chaos.scenario list
(** The two [Shard_kills] scenarios (supervised alloc, supervised
    paging), over 4 shards of 150 workload steps each under [quick],
    600 otherwise.
    [domains] (default 2) is the execution width of the supervised
    subject run; the reference always runs at width 1. *)
