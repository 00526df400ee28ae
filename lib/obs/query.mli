(** Trace analytics: composable queries over recorded event streams.

    A query is a {!reader}: a step fed one event at a time, tagged with
    its run segment, that keeps only what its answer needs, over an
    in-memory stream ({!read_events}) or a JSONL file read line by line
    ({!read_file}).  Readers answer group-by aggregation, start/done
    pairing into latency distributions, and one fixed roll-up
    ({!summary}); {!filter} selects entries.  [dsas_sim query] is a
    thin shell over these; [dsas_sim stats] is {!summary} of a file.

    Reading a file is strict: a file that does not exist, contains
    malformed or truncated lines, or holds no events at all is an
    [Error] with a diagnostic, never a silently empty result. *)

type entry = {
  run : int;  (** enclosing run segment; events before any
                  [run_start] belong to run 0 *)
  ev : Event.t;
}

type 'r reader = {
  add : entry -> unit;  (** take the next entry *)
  result : unit -> 'r;  (** the answer so far *)
}
(** One reader's state behind its step and its answer. *)

val read_events : 'r reader -> Event.t list -> 'r
(** Feed an in-memory stream, in order. *)

val read_file : 'r reader -> string -> ('r, string) result
(** Feed a JSONL trace file line by line ({!Artifact.fold_file}); the
    name ["-"] reads from stdin instead (left open).  [Error] on an
    unreadable file, on any malformed line (up to five are quoted in
    the diagnostic), and on a trace with zero events; then the answer
    is not asked for. *)

(** {1 Filtering} *)

val filter : ?kinds:string list -> ?run:int -> ?since_us:int -> ?until_us:int -> entry -> bool
(** Whether an entry matches every given criterion: event kind-name in
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

val group : key:group_key -> agg:agg -> (string * float) list reader
(** Aggregate over groups, sorted by group label.  [Sum]/[Mean] skip
    entries lacking the named numeric field; a group with no usable
    samples under [Mean] is dropped. *)

val top : int -> (string * float) list -> (string * float) list
(** Largest [n] rows by value, descending; label breaks ties. *)

(** {1 Pairing and latency} *)

type pairing = {
  latencies : int list;  (** [done.t_us - start.t_us] per pair, in order of the done events *)
  unmatched_starts : int;  (** starts never closed (within their run) *)
  unmatched_dones : int;  (** dones with no open start *)
}

val pair : start_kind:string -> done_kind:string -> (pairing, string) result reader
(** Match [start_kind] events to [done_kind] events by their ["req"]
    payload field, scoped to run segments (a request left open when the
    next run begins is unmatched); it keeps the open starts and the
    latencies.  [Error] if either kind name is unknown or carries no
    ["req"] field. *)

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
(** Latency distribution of the pairs; [None] if there are none.
    [p50_us]/[p90_us]/[p99_us] are the exact ceil-rank order statistics
    over the raw latencies ({!Metrics.Histogram.percentile}, the rule
    the metrics artifact uses too), not bucket lower bounds (which can
    understate the tail by up to 2x).  [hist] also carries the
    log-bucketed counts for display. *)

(** {1 The query command's reports} *)

val report_groups :
  keep:(entry -> bool) -> key:string option -> agg:string -> limit:int option -> json:bool ->
  string -> (unit, string) result
(** Read a trace file ({!read_file}) and group the entries [keep]
    accepts by [key] ([kind], [run] or [field:NAME]; default [kind]),
    aggregate by [agg] ([count], [sum:FIELD] or [mean:FIELD]), keep the
    [limit] largest groups, and print them on stdout as a table after
    the count of kept entries, or as one JSON object of label to value.
    A malformed [key] or [agg] is [Error] before the file is opened. *)

val report_pairs :
  keep:(entry -> bool) -> spec:string -> percentiles:bool -> json:bool -> string ->
  (unit, string) result
(** Read a trace file, pair [spec]'s [START,DONE] kinds ({!pair}) among
    the entries [keep] accepts, and print the match counts and the
    latency distribution ({!latency_of}) on stdout, as text (with p50,
    p90, p99 and the histogram buckets under [percentiles]) or as one
    JSON object.  A malformed [spec], or one naming an unknown kind, is
    [Error] before the file is opened. *)

(** {1 Summary} *)

type summary = {
  events : int;
  t_first_us : int;  (** 0 when the trace is empty *)
  t_last_us : int;
  kinds : (string * int) list;  (** events per kind, sorted by name; zero counts omitted *)
}

val summary : unit -> summary reader
(** Counts per kind and the first and last [t_us]. *)

val summary_to_json : summary -> string

val print_summary : summary -> unit
(** Human-readable table on stdout. *)

(** {1 Bridges} *)

val metrics_sink : Registry.t -> Sink.t
(** A live sink that folds the stream into a registry as it is emitted:
    an [ev.<kind>] counter per event, an [io_latency_us] histogram and
    stats pair fed by io_start/io_done matching, and a [t_last_us]
    gauge.  Attach with {!Sink.tee} to also record the stream. *)
