(** Hierarchical host-time span profiler.

    Measures where the simulator itself spends wall-clock time — as
    opposed to the event stream, which records *simulated* time.  Spans
    nest: a span entered while another is active becomes its child, and
    aggregation is keyed by the full call path, so the same function
    shows up separately under different callers (flamegraph semantics).

    The profiler is a process-wide singleton, off by default.  When
    disabled, [span] is a single flag test plus a tail call — engines
    keep their instrumentation unconditionally and pay (almost) nothing.
    Timing uses bechamel's monotonic clock, so spans are immune to
    wall-clock adjustments; allocation deltas come from
    [Gc.minor_words] and [Gc.counters].

    Not thread-safe: the span stack is global state, matching the
    single-domain simulator. *)

type row = {
  path : string;  (** [";"]-separated span names, root first *)
  count : int;  (** number of completed spans at this path *)
  total_ns : int;  (** wall time inside the span, children included *)
  self_ns : int;  (** wall time minus time spent in child spans *)
  alloc_words : float;
      (** OCaml words allocated during the span (minor + major directly,
          promotions not double-counted), children included *)
}

val enable : unit -> unit
(** Start recording.  Also clears any half-open span stack left from a
    previous enable/disable cycle. *)

val disable : unit -> unit
(** Stop recording.  Accumulated rows survive until [reset]. *)

val reset : unit -> unit
(** Drop all accumulated rows and the span stack. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] inside a span called [name].  The span is
    closed even if [f] raises.  When the profiler is disabled this is
    just [f ()]. *)

val rows : unit -> row list
(** Completed spans, sorted by total time descending. *)

val folded : unit -> string
(** Flamegraph "folded stacks" format: one [path self_us] line per row,
    self time in microseconds, sorted by path.  Feed to
    [flamegraph.pl] or speedscope. *)

val to_json : unit -> string
(** The rows as a JSON document [{"spans": [...]}]. *)

val print : out_channel -> unit
(** Human-readable table, indented by call depth. *)

val around : table:bool -> folded:string option -> (unit -> 'a) -> 'a
(** [around ~table ~folded f] runs [f ()] under a fresh profile, then
    writes its {!folded} stacks to the [folded] path
    ({!Artifact.write_atomic}) and, with [table], {!print}s the span
    table on stdout.  Without either it is just [f ()]. *)
