(** Declarative watchdogs over the telemetry snapshot stream.

    A watchdog rule names a metric (counter or gauge; counters shadow
    gauges of the same name), a condition, and a window measured in
    snapshots.  An evaluator ({!create}) consumes snapshots in order
    ({!feed}) and reports {!alert}s: a [Fire] when a rule enters
    violation, a [Clear] when it leaves.  Alerts map onto the trace
    vocabulary as {!Event.kind.Watchdog_fire} /
    {!Event.kind.Watchdog_clear} ({!alert_events}), which the two
    [watchdog-*] {!Check} invariants audit; rules marked escalating
    ({!rule.escalate}) additionally surface through {!tripped} so a
    supervisor can convert a stuck shard into a
    [Resilience.Failure], the same path chaos takes.

    Evaluation is a pure fold over the snapshots, so — like the
    snapshots themselves — watchdog verdicts are deterministic and
    independent of [--domains] width.

    The textual grammar, one rule per spec string — a metric name, an
    operator with its optional threshold, ["@"], the window, and an
    optional trailing ["!"]:

    {v
    ev.fault>100@3      fire when ev.fault  > 100 for 3 consecutive snapshots
    g<0.25@2            fire when gauge g   < 0.25 for 2 consecutive snapshots
    ev.job_stop=@5      stall: unchanged across 5 consecutive snapshot intervals
    ev.alloc+10@4       delta: advanced by < 10 over the last 4 snapshots
    ev.job_stop=@5!     trailing '!' marks the rule escalating
    v} *)

type op =
  | Above of float  (** newest value > threshold *)
  | Below of float  (** newest value < threshold *)
  | Stall  (** newest value equals the previous snapshot's *)
  | Delta of float  (** advanced by less than the threshold over the window *)

type rule = {
  name : string;  (** the spec string, stamped into watchdog events *)
  source : string;  (** metric name, e.g. ["ev.fault"] *)
  op : op;
  window : int;  (** consecutive snapshots (lookback span for [Delta]) *)
  escalate : bool;
}

val parse : string -> (rule, string) result
(** Parse one spec string (grammar above).  The rule's [name] is the
    trimmed spec itself, so traces identify rules by what the operator
    wrote. *)

val parse_all : string list -> (rule list, string) result
(** Every spec in order, or the first one's error. *)

val to_string : rule -> string
(** The canonical spec spelling; [parse (to_string r)] is equivalent
    to [r] up to number formatting. *)

type t
(** An evaluator: per-rule streak, episode, and lookback state. *)

type alert =
  | Fire of { rule : rule; snapshots : int }
      (** entered violation; [snapshots] = consecutive violating
          snapshots so far (= the window, except [Delta] which fires on
          its first violating snapshot) *)
  | Clear of { rule : rule; snapshots : int }
      (** left violation; [snapshots] = total violating snapshots in
          the episode (>= the count reported at fire) *)

val create : rule list -> t

val feed : t -> Telemetry.snapshot -> alert list
(** Evaluate every rule against the next snapshot; alerts in rule
    order.  A rule whose metric is absent from the snapshot is not
    violating (and its stall/delta lookback restarts). *)

val reset : t -> unit
(** Forget streaks, episodes, and lookback without emitting clears —
    call at run-segment boundaries so episodes never span segments.
    {!tripped} memory survives. *)

val firing : t -> rule list
(** Rules currently in violation (fired, not yet cleared). *)

val tripped : t -> rule list
(** Escalating rules that fired at least once, ever (resets do not
    forget) — the set the caller turns into failures. *)

val alert_events : t_us:int -> alert list -> Event.t list
(** Render alerts as trace events stamped [t_us] (conventionally the
    snapshot's capture time, keeping the stream monotone). *)

val tap :
  every_us:int ->
  rule list ->
  mirror:out_channel ->
  trace:Sink.t ->
  Sink.t * (unit -> string option)
(** A run's telemetry tap.  The returned sink folds the stream it is
    fed into a {!Telemetry} snapshot every [every_us] of engine time,
    mirrored to [mirror] as it is taken, and feeds each snapshot to an
    evaluator of [rules]: fires and clears are reported on stderr and
    emitted into [trace], stamped with the snapshot's engine time, and
    rule state resets at each [run_start].  The finisher takes the
    closing snapshot — the end-of-run state, so a run shorter than one
    interval still yields one — and returns the first escalating rule
    that fired, if any. *)
