(** Exporters to standard tooling formats.

    Traces, profiles, and telemetry are more useful when the usual
    viewers can open them: {!chrome_of_events} renders an event stream
    as Chrome trace-event JSON (load in Perfetto / [chrome://tracing]),
    {!flamegraph} renders folded stacks (the [--profile-out] format) as
    a self-contained SVG, and {!telemetry_csv} flattens snapshots for
    spreadsheets.  All three are pure string transformations, and
    deterministic, so exported artifacts diff cleanly across runs;
    {!export} adds the file handling of the export command. *)

val chrome_of_events : Event.t list -> string
(** One Chrome trace-event JSON document.  The mapping: each run
    segment is a process ([pid] = run id); each shard a thread within
    it ([tid] = shard + 1, with [tid] 0 for unsharded engine events) —
    both announced with [process_name]/[thread_name] metadata.
    [io_start] opens and [io_done]/[io_error] closes an async span
    (category ["io"], id = request id; errors carry their attempt count
    in [args]); watchdog fire/clear pair as async spans (category
    ["watchdog"], id = rule); every other event is a thread-scoped
    instant with its payload as [args].  [ts] is the event's [t_us]
    unchanged — Chrome's native unit is also the microsecond. *)

val flamegraph : ?title:string -> string -> (string, string) result
(** Render folded-stacks text (lines of ["frame;frame;frame WEIGHT"],
    blank and [#] lines ignored) as a self-contained flamegraph SVG:
    bottom-up boxes, width proportional to cumulative weight, sibling
    order = first-appearance order, colors a deterministic hash of the
    frame name, each box carrying a [<title>] tooltip with its weight
    and share.  A line whose weight is not a positive finite number is
    malformed and skipped; [Error] when no line parses. *)

val telemetry_csv : Telemetry.snapshot list -> string
(** One CSV table: [seq,t_us,shard] then one ["c.<name>"] column per
    counter and ["g.<name>"] per gauge (sorted union across all
    snapshots; cells empty where a snapshot lacks the metric). *)

type format = Chrome | Flamegraph | Telemetry_csv

val formats : (string * format) list
(** ["chrome"], ["flamegraph"], ["telemetry-csv"]. *)

val export : format -> out:string option -> string -> (unit, string) result
(** The export command: read a file (["-"] is stdin) as a trace
    ({!Query.read_file}, for [Chrome]), folded stacks ([Flamegraph]) or
    a telemetry mirror ([Telemetry_csv]), render it, and print it on
    stdout or write it to [out] through [out ^ ".tmp"], renamed over
    [out] once the whole input was read.  [Chrome]
    writes each chunk of {!chrome_of_events}' writer as it fills, so on
    stdout a damaged trace may have printed the records before its bad
    line.  [Error] on unreadable or damaged input, or on an [out] whose
    directory is missing, checked before the input is read. *)
