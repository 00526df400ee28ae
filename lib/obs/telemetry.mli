(** Live telemetry: periodic snapshots of a metrics registry.

    Traces and metrics files are post-mortem artifacts; telemetry is
    the live view.  A channel samples a {!Registry} into timestamped
    {!snapshot}s on an engine-time cadence (every [every_us] simulated
    microseconds) and delivers each one to its {!on_capture} callback
    and its {!mirror}: append-only JSON lines (schema {!schema}) that
    [dsas_sim top] can tail while the run is still going.

    Determinism contract: cadence is driven by {e engine} time — the
    running max of non-io event timestamps, the same clock
    {!Merge} keys on — so the snapshot sequence is a pure function of
    the event stream.  Per-shard snapshot streams taken on different
    domains merge ({!merge}) into the same sequence at every
    [--domains] width, and {!of_events} recomputes the identical
    sequence from a recovered trace.  The library never reads a wall
    clock (lint rule L1). *)

val schema : string
(** ["dsas-telemetry/1"] — stamped on every snapshot line. *)

type snapshot = {
  sn_seq : int;  (** dense per-channel sequence number, from 0 *)
  sn_t_us : int;  (** engine time at capture *)
  sn_shard : int option;  (** producing shard, [None] for whole-run channels *)
  sn_counters : (string * int) list;  (** sorted by name, as in {!Registry.snapshot} *)
  sn_gauges : (string * float) list;
}

type t
(** A telemetry channel: cadence state and where snapshots go. *)

val create : ?shard:int -> every_us:int -> unit -> t
(** A channel capturing every [every_us] engine-µs ([every_us >= 1]),
    tagging its snapshots with [shard]. *)

val mirror : t -> out_channel -> unit
(** Also append every subsequent snapshot as one JSON line to the
    channel, flushing each line so live tailers see it immediately.
    The caller owns the [out_channel]. *)

val on_capture : t -> (snapshot -> unit) -> unit
(** Callback invoked after each capture — the hook watchdogs
    ({!Watch}) attach to, and the way to keep snapshots in memory. *)

val observe : t -> t_us:int -> Registry.t -> unit
(** Advance engine time to [max engine_us t_us] and capture a snapshot
    if the cadence deadline passed.  At most one capture per call: when
    engine time jumps across several [every_us] intervals the skipped
    deadlines collapse into the single capture and the next deadline is
    the first multiple of [every_us] past the new engine time.  Cheap
    when no capture is due: two comparisons. *)

val capture : t -> t_us:int -> Registry.t -> snapshot
(** Unconditional capture, bypassing the cadence (used at run end and
    by external paced callers such as the campaign parent). *)

val events_sink : t -> Registry.t -> Sink.t
(** A self-contained tap: fold every event into [reg] (per-kind
    ["ev.<kind>"] counters, ["io.inflight"] and ["t_last_us"] gauges)
    and drive the channel's cadence from non-io event times.  Tee it
    with a recording sink to get telemetry alongside a trace. *)

val of_events : ?shard:int -> every_us:int -> Event.t array -> snapshot array
(** The full snapshot sequence a fresh channel tapping [events] would
    capture — a pure function of the event array, which is how
    per-shard telemetry stays identical whether a shard ran clean or
    was crash-recovered by the supervisor. *)

val merge : snapshot array array -> snapshot array
(** Deterministic k-way merge of per-shard snapshot streams, ordered
    by [(t_us, shard, seq)] (a snapshot with no shard tag uses its
    stream index).  Independent of arrival order, hence of [--domains]
    width. *)

val snapshot_to_json : snapshot -> string
(** One flat JSON line: [{"schema":"dsas-telemetry/1","seq":..,
    "t_us":..,"shard":..,"c.<counter>":..,"g.<gauge>":..}]; the
    ["shard"] field is omitted for whole-run channels. *)

val snapshot_of_json : string -> snapshot option
(** Inverse of {!snapshot_to_json}; [None] on malformed input or a
    wrong/missing schema tag. *)

val strict : Artifact.report -> (unit, string) result
(** {!Artifact.strict} for a mirror file: every data line a snapshot,
    and at least one. *)

type checker
(** Each producer's last two snapshots, the counts and the first
    [limit] problems: the state of the check and of {!top}. *)

val checker : limit:int -> checker

val check_snapshot : checker -> snapshot -> unit
(** The next snapshot: per producer (shard tag), sequence numbers must
    be dense and increasing from 0 and timestamps monotone. *)

val check : snapshot list -> string list
(** Every problem in a stream, in input order.  Empty list = ok. *)

(** {1 The check and top commands} *)

val report_check : json:bool -> checker -> Artifact.report -> (unit, string) result
(** Report a mirror file read through {!check_snapshot}: the snapshot
    count and the kept problems on stdout, or one JSON object of
    counts.  [Error] when the file is not strictly a mirror
    ({!strict}), or when any problem was found. *)

val top : json:bool -> string -> (unit, string) result
(** Read a mirror leniently (it may still be growing, its last line
    torn) and print, per producer in first-appearance order, the latest
    snapshot: engine time, every counter with its rate per second since
    the producer's previous snapshot, and every gauge — as a table on
    stdout, or as one JSON object.  [Error] with the system's message,
    which names the file, when it cannot be read, and
    ["FILE: no parseable telemetry snapshots"] when no line parses. *)

val follow : interval:float -> sleep:(float -> unit) -> string -> (unit, string) result
(** {!top}'s table again every [interval] seconds, until interrupted,
    each followed by a blank line.  While the file does not exist or
    holds no snapshot, each tick prints why instead, so [follow] can
    start before the run that writes the file.  Returns [Error] only
    when a file that exists cannot be read. *)
