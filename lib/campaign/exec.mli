(** The campaign executor: forked worker pool with per-cell
    checkpointing.

    Each grid point runs in its own forked process — a cell that
    diverges or dies takes only its process, and the parent records a
    failed cell and keeps going.  The parent is the only writer of the
    status log, appending one line as each child is reaped; a killed
    campaign therefore resumes by replaying the log, re-running only
    cells that never reached done (failed cells are retried). *)

type runner =
  point:Spec.point ->
  quick:bool ->
  trace_path:string option ->
  metrics_path:string ->
  (unit, string) result
(** Runs in the child process.  Must write the cell's metrics to
    [metrics_path] (atomically — use {!Obs.Artifact.write_atomic}) and, when
    [trace_path] is given, its trace there.  An [Error] (or an
    exception, which is caught) fails the cell. *)

type outcome = {
  total : int;  (** grid points in the spec *)
  skipped : int;  (** already done — or out of retries — at run start *)
  ran : int;
  ok : int;
  failed : int;  (** cells that ended this run failed (budget spent) *)
  timed_out : int;  (** attempts killed at the wall-clock limit *)
  retried : int;  (** retry attempts performed this run *)
}

val run :
  ?jobs:int ->
  ?limit:int ->
  ?timeout_s:float ->
  ?max_retries:int ->
  ?retry_backoff_s:float ->
  ?on_cell:(Spec.point -> Store.status -> unit) ->
  dir:string ->
  spec:Spec.t ->
  runner:runner ->
  unit ->
  outcome
(** Run every pending cell (at most [limit], in grid order) across
    [jobs] workers (default 1).  [on_cell] fires in the parent as each
    attempt completes.  Call {!Store.init} first.  Every spawn appends
    a {!Store.record_start} ["running"] line and every completion is
    stamped with the wall-clock time, so {!Store.timings} can report
    per-cell start/elapsed.

    [timeout_s] bounds each attempt's wall-clock time: an overdue
    child is SIGKILLed and its failure recorded as timed out.  The
    parent polls (WNOHANG) while a timeout is set, or while a queued
    retry backs off with a worker free, so that retry starts as soon as
    its backoff ends; otherwise it blocks in wait.

    [max_retries] (default 0) is the per-cell failed attempt budget
    {e across resumes}: each failure is logged with its attempt count,
    a failing cell is requeued after a linear [retry_backoff_s] *
    attempts delay while budget remains, and a resumed campaign skips
    cells whose recorded retries already exhausted the budget.  With
    [max_retries = 0] failures are never retried in-run but are
    re-attempted by a later invocation — the legacy behaviour. *)

val progress : quiet:bool -> Spec.t -> out_channel option -> Spec.point -> Store.status -> unit
(** An [on_cell] for {!run}: unless [quiet], a [[done]] or [[FAIL]]
    line per settled attempt on stdout; with a telemetry mirror, one
    dsas-telemetry/1 snapshot per settled attempt (cells.done and
    cells.failed counters, elapsed_s and cells_per_s gauges), stamped
    with the wall-clock microseconds since [progress] was called. *)

val report : Spec.t -> outcome -> (unit, string) result
(** Print the one-line outcome on stdout; [Error] when a cell failed. *)
