(** Trace analytics: composable queries over recorded event streams.

    This module loads a JSONL trace (or takes in-memory events) into an
    indexed form — every event tagged with its line number and run
    segment — and offers filters, group-by aggregation, start/done
    pairing into latency distributions, top-N tables and one fixed
    roll-up ({!to_summary}).  The [dsas_sim query] subcommand is a thin shell
    over these; [dsas_sim stats] is {!to_summary} of an unfiltered
    {!load}.

    Loading is strict: a file that does not exist, contains malformed or
    truncated lines, or holds no events at all is an [Error] with a
    diagnostic, never a silently empty result. *)

type entry = {
  line : int;  (** 1-based position in the source (file line) *)
  run : int;  (** enclosing run segment; events before any
                  [run_start] belong to run 0 *)
  ev : Event.t;
}

type t
(** A loaded trace: entries in source order. *)

val of_events : Event.t list -> t
(** Tag an in-memory stream.  Line numbers are the 1-based positions in
    the list. *)

val load : string -> (t, string) result
(** Read a JSONL trace file; the name ["-"] reads from stdin instead
    (left open).  [Error] on an unreadable file, on any malformed line
    (up to five are quoted in the diagnostic), and on a trace with
    zero events. *)

val length : t -> int

val entries : t -> entry list

val events : t -> Event.t list

(** {1 Filtering} *)

val filter :
  ?kinds:string list ->
  ?run:int ->
  ?since_us:int ->
  ?until_us:int ->
  t ->
  t
(** Keep entries matching every given criterion: event kind-name in
    [kinds], run segment = [run], and [since_us <= t_us <= until_us].
    Omitted criteria match everything. *)

(** {1 Grouping} *)

type group_key =
  | By_kind  (** event kind name *)
  | By_run  (** run segment id *)
  | By_field of string
      (** a payload field's printed value; entries without the field are
          dropped *)

type agg =
  | Count
  | Sum of string  (** sum of a numeric payload field *)
  | Mean of string  (** mean of a numeric payload field *)

val group : t -> key:group_key -> agg:agg -> (string * float) list
(** Aggregate over groups, sorted by group label.  [Sum]/[Mean] skip
    entries lacking the named numeric field; a group with no usable
    samples under [Mean] is dropped. *)

val top : int -> (string * float) list -> (string * float) list
(** Largest [n] rows by value, descending; label breaks ties. *)

(** {1 Pairing and latency} *)

type pair_row = {
  p_run : int;
  req : int;
  io : string;  (** the start event's ["io"] field, [""] if absent *)
  start_us : int;
  finish_us : int;
  latency_us : int;  (** [finish_us - start_us] *)
}

type pairing = {
  rows : pair_row list;  (** in order of the done events *)
  unmatched_starts : int;  (** starts never closed (within their run) *)
  unmatched_dones : int;  (** dones with no open start *)
}

val pair : t -> start_kind:string -> done_kind:string -> (pairing, string) result
(** Match [start_kind] events to [done_kind] events by their ["req"]
    payload field, scoped to run segments (a request left open when the
    next run begins is unmatched).  [Error] if either kind name is
    unknown or carries no ["req"] field. *)

type latency = {
  samples : int;
  min_us : int;
  max_us : int;
  mean_us : float;
  p50_us : int;
  p90_us : int;
  p99_us : int;
  hist : Metrics.Histogram.t;  (** log2-bucketed latencies *)
}

val latency_of : pairing -> latency option
(** Latency distribution of the paired rows; [None] if there are none.
    [p50_us]/[p90_us]/[p99_us] are the exact ceil-rank order statistics
    over the raw latencies ({!Metrics.Histogram.percentile}, the rule
    the metrics artifact uses too), not bucket lower bounds (which can
    understate the tail by up to 2x).  [hist] also carries the
    log-bucketed counts for display. *)

(** {1 The query command's reports} *)

val report_groups :
  t -> key:string option -> agg:string -> limit:int option -> json:bool -> (unit, string) result
(** Group by [key] ([kind], [run] or [field:NAME]; default [kind]) and
    aggregate by [agg] ([count], [sum:FIELD] or [mean:FIELD]), keep the
    [limit] largest groups, and print them on stdout as a table after
    the event count, or as one JSON object of label to value.  [Error]
    names a malformed [key] or [agg]. *)

val report_pairs :
  t -> spec:string -> percentiles:bool -> json:bool -> (unit, string) result
(** Pair [spec]'s [START,DONE] kinds ({!pair}) and print the match
    counts and the latency distribution ({!latency_of}) on stdout, as
    text (with p50, p90, p99 and the histogram buckets under
    [percentiles]) or as one JSON object. *)

(** {1 Summary} *)

type summary = {
  events : int;
  t_first_us : int;  (** 0 when the trace is empty *)
  t_last_us : int;
  kinds : (string * int) list;  (** events per kind, sorted by name; zero counts omitted *)
}

val to_summary : t -> summary

val kind_count : summary -> string -> int
(** Events of one kind (by wire name), 0 if absent. *)

val summary_to_json : summary -> string

val print_summary : summary -> unit
(** Human-readable table on stdout. *)

(** {1 Bridges} *)

val metrics_sink : Registry.t -> Sink.t
(** A live sink that folds the stream into a registry as it is emitted:
    an [ev.<kind>] counter per event, an [io_latency_us] histogram and
    stats pair fed by io_start/io_done matching, and a [t_last_us]
    gauge.  Attach with {!Sink.tee} to also record the stream. *)
