(** Sharded multicore simulation: partitioned engines on a domain
    pool, with a deterministic merge of the per-shard event streams.

    The execution model.  A workload is split into [shards] independent
    partitions.  Each shard owns {e everything} it touches — a virtual
    clock starting at 0, a derived RNG stream, its arena (a slice of
    the global address / page-name space), its engine, and a private
    event buffer.  {!Pool.map_shards} runs the shard bodies across
    [domains] domains under a static assignment; afterwards, on the
    caller's domain, {!Obs.Merge} interleaves the buffered per-shard
    streams by (virtual time, shard index, arrival order) into the
    caller's sink.

    One runner.  All four entry points go through one runner and one
    per-shard loop.  The loop owns the event buffer, the replay of a
    resumed attempt and the per-step tick; an engine supplies only
    start, step, a checkpoint payload digest and report.  After the
    join, on the caller's domain, the runner derives each shard's
    {!Obs.Telemetry} stream from its buffered events
    ({!Obs.Telemetry.of_events}, in plain and supervised runs alike),
    evaluates the watch rules and performs both merges.  Every entry
    point raises [Invalid_argument] naming itself, before any shard
    runs, if [domains < 1] or a [telemetry] cadence is [< 1].

    The determinism contract.  The shard count is part of the workload
    description; [domains] is only an execution width.  Because no
    shard shares mutable state with another and the merge key is a
    pure function of the events, the merged trace — and every count in
    the report — is bit-identical for any [domains >= 1].  Results can
    legitimately differ only when the {e shard count} changes: that is
    a different workload (different partitions, clocks and RNG
    streams), not a different schedule.

    Namespacing.  Each shard simulates in local coordinates and its
    events are relabelled into disjoint global ranges at buffering
    time: shard [s] of an allocation run owns addresses
    [[s*slots*slot_words, (s+1)*slots*slot_words)]; shard [s] of a
    paging run owns pages [[s*pages, (s+1)*pages)] and a disjoint
    io-request-id range.  A merged stream therefore passes
    {!Obs.Check} as one run segment: residency, io pairing and
    first-touch accounting never collide across shards. *)

(** {2 Fixed-size allocation (the lock-free engine)} *)

type alloc_config = {
  a_shards : int;  (** partitions; part of the workload, not the width *)
  a_ops_per_shard : int;  (** alloc/free operations per shard *)
  a_slots_per_shard : int;  (** fixed-size blocks per shard arena *)
  a_slot_words : int;  (** words per block *)
  a_op_us : int;  (** virtual time per operation *)
  a_seed : int;  (** master seed; each shard derives its own stream *)
}

val alloc_config :
  ?shards:int ->
  ?ops_per_shard:int ->
  ?slots_per_shard:int ->
  ?slot_words:int ->
  ?op_us:int ->
  seed:int ->
  unit ->
  alloc_config
(** Defaults: 4 shards, 20_000 ops, 512 slots of 16 words, 5 us/op. *)

type shard_alloc = {
  sa_shard : int;
  sa_allocs : int;  (** successful allocations *)
  sa_frees : int;
  sa_failures : int;  (** allocations denied (arena exhausted) *)
  sa_refills : int;  (** magazines pulled from the shard's pool *)
  sa_flushes : int;  (** magazines returned to it *)
  sa_live : int;  (** blocks still allocated at end of run *)
  sa_elapsed_us : int;  (** the shard's virtual clock at end of run *)
  sa_events : int;  (** events this shard contributed to the trace *)
}

type alloc_report = {
  ar_shards : shard_alloc array;  (** in shard order *)
  ar_events : int;
      (** events in the merged stream (0 when neither trace nor
          telemetry was requested) *)
  ar_telemetry : Obs.Telemetry.snapshot array;
      (** merged per-shard telemetry ({!Obs.Telemetry.merge} order);
          [[||]] when no cadence was requested *)
}

val run_alloc :
  ?obs:Obs.Sink.t -> ?telemetry:int -> domains:int -> alloc_config -> alloc_report
(** Run the workload: each shard drives a private {!Fixed_alloc} over
    its arena with a mixed alloc/free stream (holding roughly half the
    arena live), buffering [Alloc]/[Free] events when [obs] is active.
    [telemetry] (a cadence in simulated µs) also merges the per-shard
    snapshot streams into [ar_telemetry], and forces event buffering
    even when [obs] is inactive.  The report, the merged stream, and
    the merged telemetry are bit-identical for any [domains >= 1]. *)

(** {2 Demand paging} *)

type paging_config = {
  p_shards : int;
  p_refs_per_shard : int;
  p_frames_per_shard : int;
  p_pages_per_shard : int;
  p_page_size : int;
  p_policy : Paging.Spec.t;
  p_compute_us_per_ref : int;
  p_seed : int;
}

val paging_config :
  ?shards:int ->
  ?refs_per_shard:int ->
  ?frames_per_shard:int ->
  ?pages_per_shard:int ->
  ?page_size:int ->
  ?policy:Paging.Spec.t ->
  ?compute_us_per_ref:int ->
  seed:int ->
  unit ->
  paging_config
(** Defaults: 4 shards, 8_000 refs, 12 frames over 24 pages of 256
    words, LRU, 50 us compute per reference. *)

type shard_paging = {
  sp_shard : int;
  sp_refs : int;
  sp_faults : int;
  sp_writebacks : int;
  sp_elapsed_us : int;
  sp_events : int;
}

type paging_report = {
  pr_shards : shard_paging array;
  pr_events : int;
  pr_telemetry : Obs.Telemetry.snapshot array;
}

val run_paging :
  ?obs:Obs.Sink.t -> ?telemetry:int -> domains:int -> paging_config -> paging_report
(** Each shard builds a fresh {!Paging.Spec.build} engine on its own
    clock and drives it over a phase-structured reference trace derived
    from the shard's RNG stream.  Events are relabelled into the
    shard's global page and request-id ranges at buffering time.  Same
    determinism and [telemetry] contract as {!run_alloc}. *)

(** {2 Supervised execution}

    The [_supervised] entry points run the exact same shard bodies
    under {!Supervisor.supervise}: per-shard bounded restarts from
    {!Checkpoint} state, deterministic fault injection via [kills],
    and typed escalation.  Guarantees, for every [domains >= 1] and
    every kill schedule that does not escalate:

    - the merged {e engine} trace written to [obs] is bit-identical
      to the zero-fault run (and hence to the unsupervised run);
    - the report is identical to the zero-fault report;
    - the {e supervision} trace (crash / restart / checkpoint events,
      on a simulated wall timeline) is written separately to
      [supervision] and is itself deterministic.

    A shard of either engine resumes the one way, by replay: it starts
    afresh, runs the steps before its checkpoint without ticking the
    supervisor, and must then match the checkpoint exactly — progress
    within the step count, clock, RNG state, the engine's payload
    digest (the alloc engine's live count and cache counters, the
    paging engine's fault and write-back counts) and every buffered
    event.  A mismatch raises {!Checkpoint.Inconsistent}, which
    poisons the checkpoint and costs a restart.  Restarts follow
    {!Supervisor}'s fixed budget and backoff.

    [checkpoint_every] counts workload steps (default 512; 0 disables
    checkpointing).  With [checkpoint_dir], checkpoints are mirrored
    to [DIR/shard<N>.ckpt] with atomic tmp+rename writes.

    [telemetry] behaves as in {!run_alloc}; because the snapshots are
    derived from the recovered event streams after the join, a
    crash-recovered run's telemetry is bit-identical to the fault-free
    run's by construction.  [watch] (requires [telemetry]) evaluates
    {!Obs.Watch} rules over every shard's snapshot stream after the
    join; the first escalating fire — lowest shard index, then
    snapshot order — aborts the run with
    [Resilience.Failure.Watchdog_tripped] before anything is emitted
    to [obs], the same no-partial-emission discipline as crash
    escalation. *)

val run_alloc_supervised :
  ?obs:Obs.Sink.t ->
  ?supervision:Obs.Sink.t ->
  ?telemetry:int ->
  ?watch:Obs.Watch.rule list ->
  ?kills:Supervisor.kill list ->
  ?checkpoint_every:int ->
  ?checkpoint_dir:string ->
  domains:int ->
  alloc_config ->
  (alloc_report * Supervisor.outcome array, Resilience.Failure.t) result

val run_paging_supervised :
  ?obs:Obs.Sink.t ->
  ?supervision:Obs.Sink.t ->
  ?telemetry:int ->
  ?watch:Obs.Watch.rule list ->
  ?kills:Supervisor.kill list ->
  ?checkpoint_every:int ->
  ?checkpoint_dir:string ->
  domains:int ->
  paging_config ->
  (paging_report * Supervisor.outcome array, Resilience.Failure.t) result
