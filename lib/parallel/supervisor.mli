(** Supervised execution of shard bodies: bounded deterministic
    restarts over {!Checkpoint} state, with typed escalation.

    The supervisor wraps one shard's body in a restart loop that runs
    entirely on the shard's worker domain.  The body calls {!step}
    after every workload step; the supervisor uses those ticks to
    inject deterministic faults (a seeded schedule or an explicit
    {!kill} list), to take periodic checkpoints, and to stamp
    supervision events ([shard_crash] / [shard_restart] /
    [shard_checkpoint]) on a per-shard wall timeline that keeps
    advancing across restarts.

    Supervision events are returned in the {!outcome} and belong in a
    {e separate} trace segment: the engine trace of a recovered run is
    bit-identical to the fault-free run, which is the whole point.

    Each shard may restart 3 times.  The [n]-th restart waits [250 * n]
    simulated wall µs plus a jitter below 250 µs, drawn from a seeded
    per-shard stream — deterministic, independent of domain
    scheduling.  The next fault escalates as a typed
    {!Resilience.Failure.t} ([Shard_crashed] or [Shard_stalled] after
    the last observed fault) instead of raising. *)

type fault = Crash | Stall

type kill = Resilience.Chaos.shard_kill = {
  k_shard : int;  (** which shard to kill *)
  k_attempt : int;  (** on which execution attempt (0 = first run) *)
  k_progress : int;  (** after how many completed workload steps *)
  k_stall : bool;  (** [true] simulates a detected stall, not a crash *)
}
(** The chaos layer's shard-kill record, re-exported: drawn chaos
    schedules and explicit kill lists are the same type. *)

val parse_kills : string -> (kill list, string) result
(** Parse a [--kill-shard] spec: comma-separated [S@P] pairs, each
    killing shard [S >= 0] after it completes workload step [P >= 1].
    Repeating a shard targets its successive execution attempts in
    order (attempt 0, 1, ...).  Spaces around parts and numbers are
    ignored.  Never raises: bad syntax, an empty part, an integer out
    of range or outside those bounds is an [Error] quoting the spec. *)

val check_kills :
  shards:int -> steps:int -> checkpoint_every:int -> kill list -> (unit, string) result
(** [Error] names the first kill that can never fire in a workload of
    [shards] shards of [steps] steps each, checkpointed every
    [checkpoint_every] steps ({!supervise}): its shard is [shards] or
    more, its step is past [steps], or its step is not after the one
    its attempt resumes from.  A kill at step [P] resumes the shard's
    next attempt from the last multiple of [checkpoint_every] below
    [P] (from step 0 when checkpointing is off).  A shard's kills
    target its attempts in list order, as {!parse_kills} gives them. *)

exception Injected of fault
(** How an injected fault tears down the body mid-step.  Bodies do not
    need to catch it; the supervisor does. *)

val no_inject : shard:int -> attempt:int -> progress:int -> fault option
(** The zero-fault schedule. *)

val inject_of_kills :
  kill list -> shard:int -> attempt:int -> progress:int -> fault option
(** Fault schedule from an explicit kill list: fires when shard,
    attempt and progress all match. *)

type snap = {
  sn_clock_us : int;  (** the shard's virtual clock now *)
  sn_rng : int64;  (** {!Sim.Rng.state} of the shard's stream *)
  sn_payload : int array;  (** engine-specific encoding or digest *)
  sn_events : Obs.Event.t array;  (** events emitted so far, in order *)
}
(** What a body's snapshot thunk must capture for a checkpoint. *)

type ctl
(** The supervision handle a body ticks through. *)

val progress : ctl -> int
(** Workload steps completed (monotone across restarts — a resumed
    body starts from its checkpoint's progress). *)

val step : ctl -> clock_us:int -> snapshot:(unit -> snap) -> unit
(** Must be called by the body once after each completed workload
    step, with the shard's current virtual clock.  May raise
    {!Injected} (the schedule killed the shard here) and may take a
    checkpoint (forcing [snapshot], which is otherwise never
    forced). *)

type outcome = {
  o_shard : int;
  o_crashes : int;  (** faults suffered *)
  o_restarts : int;  (** restarts performed (= crashes on success) *)
  o_checkpoints : int;  (** checkpoints taken, across all attempts *)
  o_events : Obs.Event.t array;  (** supervision stream, in order *)
}

val supervise :
  inject:(shard:int -> attempt:int -> progress:int -> fault option) ->
  checkpoint_every:int ->
  store:Checkpoint.store ->
  shard:int ->
  run:(resume:Checkpoint.state option -> ctl -> 'a) ->
  ('a * outcome, Resilience.Failure.t) result
(** Run [run] under supervision.  [checkpoint_every] is in workload
    steps (0 disables checkpointing; every restart then resumes from
    scratch).  [run] receives the checkpoint to resume from, if any,
    and must tick {!step} per workload step.  Any exception out of
    [run] is a fault: {!Injected} keeps its type, a
    {!Checkpoint.Inconsistent} poisons (clears) the checkpoint before
    the retry, anything else counts as a crash.  After 3 restarts the
    next fault escalates as [Error] with a typed
    {!Resilience.Failure.t}. *)
