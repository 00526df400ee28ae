(** X11 (extension): supervised sharded multicore execution of the
    simulator.

    The workload is partitioned into shards — each with its own virtual
    clock, RNG stream, arena and event buffer — and run across OCaml
    domains by {!Parallel.Sharded}; the per-shard event streams are
    then merged deterministically by (virtual time, shard).  The
    subject run always goes through {!Parallel.Supervisor}: bounded
    per-shard restarts over crash-consistent {!Parallel.Checkpoint}
    state, optionally under an injected [kills] schedule.  The
    experiment drives both sharded engines (the lock-free fixed-size
    allocator and demand paging), prints per-shard accounting with
    fault columns, and {e verifies the determinism contract
    in-process}: the recovered merged trace produced at the requested
    execution width is compared byte-for-byte against a width-1
    unsupervised reference.  Every number printed is a pure function
    of (config, seed, kills) — never of [domains].

    The trace sink receives the engine streams as runs 0-1 and the
    supervision streams (crash / restart / checkpoint events on the
    simulated wall timeline) as runs 2-3.  If a shard escalates, the
    experiment prints a greppable [ESCALATED] verdict, emits nothing,
    and returns [false]. *)

val check_kills : quick:bool -> Parallel.Supervisor.kill list -> (unit, string) result
(** [Error] names the first kill that would not fire in both engines:
    4 shards each, at most 2,000 steps under [quick] (8,000
    otherwise), the paging engine's count, and a checkpoint every 256
    steps ({!Parallel.Supervisor.check_kills}). *)

val run :
  ?quick:bool ->
  ?obs:Obs.Sink.t ->
  ?seed:int ->
  ?domains:int ->
  ?kills:Parallel.Supervisor.kill list ->
  unit ->
  bool
(** [domains] (default 1) is the execution width to exercise; the
    CLI's [--domains] flag lands here, and [--kill-shard] supplies
    [kills] (default none).  Returns [false] iff a shard exhausted its
    restart budget and escalated.  Raises [Invalid_argument] if
    [domains < 1]. *)
