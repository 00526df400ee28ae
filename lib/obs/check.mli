(** Dynamic validation of recorded event streams.

    [dsas_sim run EXP --trace FILE.jsonl] records what an engine did;
    this module replays such a stream against the typed schema
    ({!Event.of_json}) and a set of cross-event invariants, so a broken
    engine (or a corrupted file) is caught mechanically rather than by
    eyeballing goldens.

    Invariants are scoped to {e run segments}: an experiment that
    splices several engine runs into one stream separates them with
    {!Event.Run_start} boundaries (see {!Sink.segment}), and every
    per-run table — in-flight requests, resident pages, words balance —
    resets at each boundary. *)

type invariant =
  | Schema  (** line parses as a known event with sane field values *)
  | Clock  (** engine timestamps monotone within a run (io_* exempt) *)
  | Io_pair  (** io_start closed by exactly one io_done/io_error *)
  | Queue_depth  (** in-flight request count never negative *)
  | Frames  (** fault/eviction/writeback/cold_fault conserve residency *)
  | Heap  (** freed words never exceed allocated words *)
  | Vocab  (** one engine's vocabulary per run segment *)
  | Retry_bounded  (** retry attempts sequential and bounded per request *)
  | Restart_bounded  (** job restarts count up by one and stay bounded *)
  | No_lost_job  (** every started job stops; shed jobs are re-admitted *)
  | Shard_restart_bounded
      (** shard crashes count up by one, stay bounded, and every
          restart answers a crash already seen *)
  | No_lost_shard_events
      (** per-shard checkpoint (progress, events) never goes backwards *)
  | Watchdog_paired
      (** per rule, fire only when not already firing, clear only
          answers an open fire (an episode open at a run boundary is
          allowed) *)
  | Watchdog_bounded
      (** watchdog snapshot counts are positive and a clear reports at
          least as many snapshots as its fire *)

val all_invariants : invariant list

val invariant_id : invariant -> string
(** Stable wire/CLI id: ["schema"], ["clock"], ["io-pair"],
    ["queue-depth"], ["frames"], ["heap"], ["vocab"],
    ["retry-bounded"], ["restart-bounded"], ["no-lost-job"],
    ["shard-restart-bounded"], ["no-lost-shard-events"],
    ["watchdog-paired"], ["watchdog-bounded"]. *)

val invariant_doc : invariant -> string
(** One-sentence description, shown by [dsas_sim check --list-invariants]. *)

type violation = { line : int; invariant : invariant; message : string }
(** [line] is the 1-based JSONL line (or event index for
    {!check_events}). *)

type report = {
  events : int;  (** events parsed (schema failures not included) *)
  runs : int;  (** run segments: 1 + number of [run_start] boundaries *)
  counts : (invariant * int) list;  (** violations per invariant, > 0 only *)
  violations : violation list;  (** the first [limit] violations, in order *)
}

val ok : report -> bool
(** No violations of any invariant. *)

val check_events : ?limit:int -> Event.t list -> report
(** Validate an in-memory stream (e.g. from {!Sink.collect}) through
    the steps below, with line numbers the 1-based positions in the
    list. *)

type checker
(** A check in progress: the run segment's tables and the counts. *)

val create : ?limit:int -> unit -> checker
(** [limit] caps the individually-reported violations (default 50). *)

val feed_text : checker -> line:int -> string -> unit
(** The next trace line, trimmed; unparsable is a [Schema] violation. *)

val finish : checker -> line:int -> report
(** Close the last run segment at [line], and report. *)

val to_json : report -> string

val print : report -> unit
(** Human-readable summary on stdout: per-invariant totals, then the
    individually-kept violations with line numbers. *)

val print_invariants : unit -> unit
(** Every invariant id with its description, one per line on stdout. *)

val report_file : limit:int -> json:bool -> string -> (unit, string) result
(** The check command: read a file (["-"] is stdin) line by line and,
    when its first data line is a dsas-telemetry/1 snapshot, check it as
    a mirror ({!Telemetry.report_check}); otherwise {!feed_text} every
    line and {!print} the report on stdout, or its {!to_json}.  [Error]
    on an unreadable file or any violation, naming the count per
    invariant. *)
