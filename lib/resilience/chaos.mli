(** The seeded chaos harness: randomized-but-reproducible fault
    schedules driven through engine scenarios, every run validated by
    {!Obs.Check}.

    A {!scenario} is a thunk an upper layer (the experiments library,
    or the CLI) supplies: given a seed, a fault configuration and a
    sink, run an engine workload and return named recovery counters
    (e.g. [("mirror_fetches", 3)]).  The harness owns the randomness:
    one chaos seed deterministically fixes every run's fault schedule
    and workload seed, so a failing run can be replayed exactly.

    Layering note: this module sits below the engines on purpose — it
    cannot name [Paging] or [Core], so scenarios arrive as closures. *)

type scenario = {
  name : string;
  run :
    seed:int ->
    fault:Device.Fault.config ->
    obs:Obs.Sink.t ->
    (string * int) list;
      (** run the workload, return named recovery/outcome counters *)
}

type run_result = {
  scenario : string;
  index : int;
  fault : Device.Fault.config;
  counters : (string * int) list;
  events : int;
  check : Obs.Check.report;
}

type summary = {
  runs : run_result list;
  total_events : int;
  violations : int;  (** invariant violations across all runs *)
  totals : (string * int) list;  (** counters summed across runs *)
}

val schedule : Sim.Rng.t -> Device.Fault.config
(** Draw one fault configuration: read error probability in
    [0.05, 0.45), write errors on half the schedules, permanence up to
    0.3, 0-3 retries, always [Fail] escalation (chaos exercises
    recovery, and [Degrade] never surfaces a failure). *)

val run :
  ?trace:Obs.Sink.t ->
  ?progress:(int -> unit) ->
  scenarios:scenario list ->
  runs:int ->
  seed:int ->
  unit ->
  summary
(** Execute [runs] rounds, cycling through [scenarios], each under a
    fresh {!schedule} draw.  Every round's event stream is collected
    and checked ({!Obs.Check.check_events}); [trace], if given, receives
    the spliced multi-run stream ({!Obs.Sink.segment} boundaries
    included) for offline re-checking.  [progress] is called after each
    round with its index. *)

val ok : summary -> bool
(** Zero invariant violations. *)

val counter : summary -> string -> int
(** Summed counter by name, 0 if absent. *)

(** {2 Multicore chaos}

    The sharded variant injects {e shard} faults — simulated domain
    crashes and stalls at chosen workload steps — instead of device
    faults.  This module sits below [lib/parallel], so a kill is pure
    data here: {!Parallel.Supervisor.kill} is this same record, which
    the supervised engines take directly. *)

type shard_kill = {
  k_shard : int;  (** which shard to kill *)
  k_attempt : int;  (** on which execution attempt (0 = first run) *)
  k_progress : int;  (** after how many completed workload steps *)
  k_stall : bool;  (** simulate a detected stall instead of a crash *)
}

val shard_schedule :
  Sim.Rng.t -> shards:int -> steps:int -> shard_kill list
(** Draw one kill schedule: per shard, 0-2 kills at ascending workload
    steps in [1, steps], each a stall with probability 1/5.  At most 2
    kills per shard keeps every schedule inside the default restart
    budget — chaos exercises recovery; escalation is a deliberate,
    separate test. *)

type shard_scenario = {
  sh_name : string;
  sh_run :
    seed:int ->
    kills:shard_kill list ->
    engine:Obs.Sink.t ->
    supervision:Obs.Sink.t ->
    (string * int) list;
      (** run a supervised sharded workload; write the merged engine
          trace to [engine] and the supervision stream to
          [supervision]; return named counters *)
}

type sharded_result = {
  sr_scenario : string;
  sr_index : int;
  sr_kills : shard_kill list;
  sr_counters : (string * int) list;
  sr_engine_events : int;
  sr_supervision_events : int;
  sr_check : Obs.Check.report;
}

type sharded_summary = {
  sr_runs : sharded_result list;
  sr_total_events : int;
  sr_violations : int;
  sr_totals : (string * int) list;
}

val run_sharded :
  ?trace:Obs.Sink.t ->
  ?progress:(int -> unit) ->
  ?kills:shard_kill list ->
  scenarios:shard_scenario list ->
  shards:int ->
  steps:int ->
  runs:int ->
  seed:int ->
  unit ->
  sharded_summary
(** Execute [runs] rounds, cycling through [scenarios], each under a
    fresh {!shard_schedule} draw — or under the fixed [kills] schedule
    for every round, when given.  Engine and supervision events carry
    different vocabularies, so each round contributes {e two} run
    segments to [trace]: run [2i] (engine) then run [2i+1]
    (supervision).  The in-memory check validates the same two-segment
    structure per round. *)

val sharded_ok : sharded_summary -> bool
(** Zero invariant violations. *)

val sharded_counter : sharded_summary -> string -> int
(** Summed counter by name, 0 if absent. *)
