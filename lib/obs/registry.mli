(** A named-metrics registry: counters, gauges and distributions, with
    a mid-run snapshot of the counters and gauges.

    One registry per run (or per engine) gives instrumentation a place
    to accumulate without threading a record of every metric through
    the code.  Handles returned by the accessors are stable: look a
    metric up once, update it on the hot path for free.  Distributions
    are built over {!Metrics.Stats} (streaming moments) and
    {!Metrics.Histogram}. *)

type t

type counter

type gauge

val create : unit -> t

(** {2 Run metadata}

    Key/value stamps identifying the run that filled the registry
    (seed, experiment/cell id, parameter bindings).  {!to_json} writes
    them as a ["meta"] object, so a metrics artifact is
    self-describing — the campaign store depends on this to recover a
    cell's parameters from its metrics file alone. *)

val set_meta : t -> (string * string) list -> unit
(** Add or replace metadata bindings (by key; insertion order kept). *)

(** {2 Handles} — get-or-create by name} *)

val counter : t -> string -> counter

val gauge : t -> string -> gauge

val stats : t -> string -> Metrics.Stats.t

val histogram : t -> string -> default:(unit -> Metrics.Histogram.t) -> Metrics.Histogram.t
(** [default] builds the histogram (choosing its bucketing scheme) the
    first time the name is seen. *)

(** {2 Updates} *)

val incr : ?by:int -> counter -> unit

val counter_value : counter -> int

val set : gauge -> float -> unit

val gauge_value : gauge -> float

(** {2 Snapshots} *)

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name *)
}

val snapshot : t -> snapshot
(** The counters and gauges now, taken mid-run or at the end (what
    {!Telemetry.capture} records).  Cheap: proportional to the number
    of metrics. *)

val to_json : t -> string
(** Full-state export, one JSON document: every counter and gauge,
    stats with moments (count/mean/stddev/min/max/total), and
    histograms with their non-empty buckets plus exact p50/p90/p99
    ({!Metrics.Histogram.percentile}, as [query --pair] reports them)
    and min/max.  The artifact behind [dsas_sim run --metrics-out]; its
    ["series"] section is always empty, kept so that the
    [dsas-metrics/1] bytes do not change. *)
