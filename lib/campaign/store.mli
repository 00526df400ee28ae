(** The on-disk campaign store (schema [dsas-campaign/1]).

    One directory per campaign: the spec and manifest at the top, an
    append-only [cells.jsonl] status log (the checkpoint — last line
    per cell id wins), and one [dsas-metrics/1] artifact per completed
    cell under [cells/].  Metrics are written atomically (temp file +
    rename), so a kill mid-write never leaves a half-artifact that
    parses; a torn final log line is skipped on replay. *)

type failure = {
  f_msg : string;
  f_timed_out : bool;
      (** the attempt was killed at the executor's wall-clock limit *)
  f_retries : int;  (** failed attempts before this one *)
}

type status =
  | Pending
  | Done
  | Failed of failure

val failed : ?timed_out:bool -> ?retries:int -> string -> status
(** [Failed] with defaults: not a timeout, no prior attempts. *)

val spec_path : string -> string

val manifest_path : string -> string

val log_path : string -> string

val metrics_path : dir:string -> string -> string
(** [cells/<id>.metrics.json] *)

val trace_path : dir:string -> string -> string

val error_path : dir:string -> string -> string

val init : dir:string -> spec:Spec.t -> git:string option -> (unit, string) result
(** Create the directory, [spec.json] and [manifest.json] — or, when
    the directory already holds a spec, verify it hashes identically
    (the resume path) and touch nothing.  [Error] when the directory
    holds a different grid. *)

val load_spec : dir:string -> (Spec.t, string) result

val record : ?t:float -> dir:string -> string -> status -> unit
(** Append one status line for a cell id and flush — the per-cell
    checkpoint.  [t] optionally stamps the line with a wall-clock time
    (Unix epoch seconds; the executor supplies it — the store never
    reads a clock) for {!timings}. *)

val record_start : dir:string -> t:float -> string -> unit
(** Append a ["running"] line marking the moment an attempt spawned.
    Purely informational for {!timings} / [campaign status]:
    {!statuses} replays it as [Pending], so resume semantics are
    unchanged. *)

val statuses : dir:string -> Spec.t -> (Spec.point * status) list
(** Replay the log over the spec's grid, in grid order.  Unknown ids
    and unparseable lines are ignored; cells never mentioned are
    [Pending]; ["running"] lines replay as [Pending]. *)

type timing = {
  t_started : float option;  (** last attempt's spawn time *)
  t_finished : float option;  (** its completion time, [None] while running *)
}

val timings : dir:string -> (string * timing) list
(** Wall-clock bookkeeping mined from the log's ["t"] stamps, one
    entry per cell ever mentioned, in first-mention order.  A
    ["running"] line opens an attempt (clearing any earlier finish), a
    done/failed line closes it, a ["pending"] line forgets both.
    Lines from older logs without stamps contribute [None]s. *)

type loaded = {
  point : Spec.point;
  status : status;
  metrics : (string * float) list;
      (** flattened scalars: counters and gauges by name, stats as
          [.mean]/[.min]/[.max]/[.count], histograms as
          [.p50]/[.p90]/[.p99]/[.count]; [[]] unless [Done] *)
}

val load_metrics : string -> ((string * float) list, string) result

val load : dir:string -> (Spec.t * loaded list, string) result
(** Spec plus every grid point with its status and (for done cells)
    flattened metrics.  Strict: a cell the log claims done must have a
    readable artifact. *)

val mkdir_p : string -> unit
