(** Crash-consistent per-shard checkpoints for the supervised sharded
    engines.

    A checkpoint is what a resumed shard's replay must reproduce
    before it goes on to emit a {e byte-identical} event suffix:
    workload progress, virtual clock, RNG stream position, an integer
    digest of the engine's state, and the (already relabelled) event
    prefix emitted so far.

    A {!store} is owned by one shard and touched only on that shard's
    worker domain.  The authoritative copy is in memory; with a
    directory the store mirrors every save to
    [DIR/shard<N>.ckpt] via the atomic tmp+rename writer
    {!Obs.Artifact.write_atomic}, so readers can never observe a torn write.
    {!load} treats any malformed, truncated or missing file as "no
    checkpoint": resuming from scratch is always correct. *)

exception Inconsistent of string
(** Raised by a shard body when a loaded checkpoint fails verification
    (its replay disagrees with the recorded progress, clock, RNG,
    digest or events).  The supervisor treats it as a crash with a poisoned
    checkpoint: the checkpoint is discarded, a restart is consumed,
    and the next attempt starts from scratch. *)

type state = {
  ck_shard : int;
  ck_progress : int;  (** workload steps completed *)
  ck_clock_us : int;  (** the shard's virtual clock *)
  ck_rng : int64;  (** {!Sim.Rng.state} of the shard's stream *)
  ck_payload : int array;  (** digest *)
  ck_events : Obs.Event.t array;
      (** holds the emitted event prefix, in order, in its first
          [ck_count] cells: a saved state shares the shard's buffer, and
          a loaded one holds exactly the prefix *)
  ck_count : int;
}

type store

val store : ?dir:string -> shard:int -> unit -> store
(** In-memory store for [shard]; with [dir] (created if absent) every
    save is also mirrored to [dir/shard<N>.ckpt]. *)

val save : store -> state -> unit
(** Atomic: after [save], {!load} returns the new state; a crash
    mid-save leaves the previous on-disk checkpoint intact. *)

val load : store -> state option
(** The latest checkpoint, falling back to the on-disk mirror when
    the in-memory copy is empty (a fresh store over an old
    directory).  [None] when there is no usable checkpoint, including
    a mirror whose header names another shard. *)

val clear : store -> unit
(** Discard the checkpoint (memory and disk) — used to poison a
    checkpoint that failed verification. *)
