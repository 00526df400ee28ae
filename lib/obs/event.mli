(** The structured event vocabulary.

    Every allocation engine reports what it is doing as a stream of
    these events, stamped with the simulated clock ({!Sim.Clock}) time
    at which they happened.  Untimed engines (e.g.
    [Paging.Fault_sim]) stamp events with the reference index instead;
    either way [t_us] is monotone non-decreasing over a run — with one
    exception: [Io_*] events from a timed device model are stamped with
    the {e planned} service times, which the device computes ahead of
    the engine's clock, so they may interleave out of order with the
    engine's own events.

    The vocabulary maps onto the paper's concepts: [Fault] and the
    waiting intervals of Fig. 3; [Cold_fault] for first-touch
    ("demand") fetches; [Compaction_move] for the block moves behind
    artificial contiguity; [Segment_swap] for whole-segment transfers
    between working and auxiliary storage. *)

type direction = In | Out

type io = Demand | Prefetch | Writeback
(** What a backing-store request is for: a demand fault the program is
    waiting on, an advisory prefetch, or a modified-page write-back.
    [Device.Request.kind] is an alias of this type. *)

val io_name : io -> string
(** ["demand"], ["prefetch"], ["writeback"] — the wire spelling. *)

type kind =
  | Run_start of { run : int; seed : int option; config : string option }
      (** boundary between the spliced sub-runs of one experiment: the
          engine (and with it the request-id counter and, logically,
          the clock) restarts here.  {!Check} scopes every cross-event
          invariant to the span between two boundaries.  The boundary
          also stamps the run's identity on the wire — the trace schema
          version ({!trace_schema}), and, when the producer supplied
          them, the [seed] and a one-line [config] summary — so a trace
          file identifies the run that produced it *)
  | Fault of { page : int }  (** reference missed working storage *)
  | Cold_fault of { page : int }  (** first-ever touch (emitted with [Fault]) *)
  | Eviction of { page : int }
  | Writeback of { page : int }  (** modified victim copied back *)
  | Tlb_hit of { key : int }
  | Tlb_miss of { key : int }
  | Alloc of { addr : int; size : int }  (** payload address and words granted *)
  | Free of { addr : int; size : int }
  | Split of { addr : int; size : int; remainder : int }
      (** a hole at [addr] was carved: [size] granted, [remainder] left free *)
  | Coalesce of { addr : int; size : int }  (** merged free block *)
  | Compaction_move of { src : int; dst : int; len : int }
  | Segment_swap of { segment : int; words : int; direction : direction }
  | Job_start of { job : int }
  | Job_stop of { job : int }
  | Io_start of { req : int; page : int; io : io }
      (** a device channel began servicing request [req] (positioning
          included); [t_us] is the dispatch instant *)
  | Io_done of { req : int; page : int; io : io }
      (** the transfer completed; [t_us] is the completion time *)
  | Io_retry of { req : int; attempt : int }
      (** attempt [attempt] of request [req] hit a transient read error
          and will be retried (or served degraded, past the bound) *)
  | Io_error of { req : int; page : int; io : io; attempts : int }
      (** terminal failure: the request gave up after [attempts]
          service attempts (a permanent media error, or the retry
          budget exhausted under an escalating fault policy).  Closes
          the request like {!Io_done}; the data never arrived *)
  | Job_abort of { job : int; restarts : int }
      (** recovery: the job hit an unrecoverable fetch failure and was
          aborted and restarted from the beginning — its [restarts]-th
          restart.  The job keeps running; a job that exhausts its
          restart budget emits {!Job_stop} instead and is reported
          failed *)
  | Load_shed of { job : int }
      (** the load controller deactivated (swapped out) [job] because
          the multiprogramming set was thrashing *)
  | Load_admit of { job : int }
      (** the load controller reactivated a previously shed job *)
  | Shard_crash of { shard : int; attempt : int }
      (** supervision: a sharded-engine worker died mid-run — its
          [attempt]-th crash (1-based).  Emitted into the supervision
          stream, never into the engine trace — recovered engine traces
          stay bit-identical to fault-free ones *)
  | Shard_restart of { shard : int; attempt : int }
      (** supervision: the supervisor restarted the shard after its
          [attempt]-th crash (so restart n always follows crash n),
          resuming from the latest checkpoint *)
  | Shard_checkpoint of { shard : int; progress : int; events : int }
      (** supervision: the shard durably captured its state after
          [progress] workload steps with [events] trace events already
          emitted; a restart replays from here *)
  | Watchdog_fire of { rule : string; snapshots : int }
      (** a {!Watch} rule entered violation: the condition named by
          [rule] held for [snapshots] consecutive telemetry snapshots.
          Watchdog events are an observer overlay — they belong to
          every engine vocabulary and never affect engine state *)
  | Watchdog_clear of { rule : string; snapshots : int }
      (** the rule left violation after holding for [snapshots]
          snapshots in total (at least the count reported at fire) *)

type t = { t_us : int; kind : kind }

val make : t_us:int -> kind -> t

val trace_schema : string
(** The wire schema tag every [run_start] event carries
    (["dsas-trace/1"]). *)

val kind_name : kind -> string
(** The wire name: ["run_start"], ["fault"], ["cold_fault"], ["eviction"],
    ["writeback"], ["tlb_hit"], ["tlb_miss"], ["alloc"], ["free"],
    ["split"], ["coalesce"], ["compaction_move"], ["segment_swap"],
    ["job_start"], ["job_stop"], ["io_start"], ["io_done"],
    ["io_retry"], ["io_error"], ["job_abort"], ["load_shed"],
    ["load_admit"], ["shard_crash"], ["shard_restart"],
    ["shard_checkpoint"], ["watchdog_fire"], ["watchdog_clear"]. *)

val all_kind_names : string list
(** Every wire name, in declaration order. *)

(** {2 The wire format}

    [{"t_us":T,"ev":NAME,...}] and then the kind's fields in record
    order, each an int or a string, as one table in the implementation
    declares them for every reader and writer below.  [run_start] adds
    ["schema"] ({!trace_schema}) and writes [seed] and [config] only
    when present; a [direction] is the field ["dir"]. *)

val fields_of_kind : kind -> (string * Json.t) list
(** The payload fields exactly as they appear on the wire, e.g.
    [[("page", Int 7)]] for a fault.  The generic accessor behind
    {!Query}'s field-keyed grouping and pairing. *)

val out_of_range : kind -> (string * int * int) list
(** The int fields below their declared least value (0 for ids,
    addresses and counts, 1 for sizes, attempts and snapshot counts),
    as [(key, value, least)]: {!Check}'s schema ranges. *)

(** {2 The writer}

    Every event byte is written by one writer: a byte array and a
    position, checked for room once per piece, with no [Buffer] call
    or allocation per byte.  {!to_json}, {!to_buffer} and
    {!to_channel} encode into one writer per domain; {!Export} writes
    its Chrome records into a writer of its own. *)

type writer

val writer : int -> writer
(** An empty writer with room for about that many bytes; it grows as
    needed. *)

val written : writer -> int
(** The bytes written since the writer was made or last {!take}n. *)

val take : writer -> string
(** The bytes written, as a string; the writer is then empty. *)

val add_text : writer -> string -> unit
(** Append bytes as they are: fixed text, written without an escape
    scan. *)

val add_int : writer -> int -> unit
(** Append an int as [Json.to_buffer] writes an [Int]. *)

val add_quoted : writer -> string -> unit
(** Append a string as [Json.to_buffer] writes a [String], quoted and
    escaped. *)

val add_fields : writer -> kind -> unit
(** Append the payload alone as one object, e.g. [{"page":7}]. *)

val to_json : t -> string
(** One compact JSON object, e.g.
    [{"t_us":1200,"ev":"fault","page":7}]: the bytes of [Json.to_buffer]
    over ["t_us"], ["ev"] and {!fields_of_kind}, with no [Json.t] built. *)

val to_buffer : Buffer.t -> t -> unit
(** Append {!to_json}'s bytes, with no string built. *)

val to_channel : out_channel -> t -> unit
(** Write {!to_json}'s bytes and a newline: one JSONL line. *)

val of_json : string -> t option
(** Inverse of {!to_json}; [None] on malformed input, an unknown event
    name, or a missing or mistyped field. *)
