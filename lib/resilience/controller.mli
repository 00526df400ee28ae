(** Space-time-product load control for the multiprogramming set.

    The thrashing mode of Randell & Kuehner's multiprogrammed paging
    system is collective: with too many jobs resident, every job's
    working set is squeezed, every reference faults, and the CPU idles
    while the drum queue grows.  The controller watches CPU utilization
    over fixed windows and applies hysteresis: when utilization falls
    below [low_utilization] it sheds one job (the one with the largest
    space-time product — window fault count x resident occupancy — the
    paper's measure of how expensively a job holds storage), and when
    utilization rises above [high_utilization] it re-admits previously
    shed jobs, oldest first.  Between the watermarks it does nothing,
    so a marginal system does not oscillate.

    The controller only decides; the scheduler ([Core.Multiprog]) owns
    the mechanics (parking and waking jobs, evicting their pages) and
    reports actions back via {!note_shed} / {!note_admit}, and emits
    the [load_shed] / [load_admit] events. *)

type config = {
  period_us : int;  (** decision window length *)
  low_utilization : float;  (** shed below this CPU utilization *)
  high_utilization : float;  (** re-admit above this CPU utilization *)
  min_active : int;  (** never shed below this many active jobs *)
}

val config :
  ?period_us:int ->
  ?low_utilization:float ->
  ?high_utilization:float ->
  ?min_active:int ->
  unit ->
  config
(** Defaults: 20 ms windows, shed below 0.35, re-admit above 0.65,
    keep at least 1 job active. *)

type verdict = Steady | Shed_one | Admit_one

type t

val create : config -> t

val observe_execute : t -> us:int -> unit
(** Account [us] of compute progress to the current window. *)

val observe_fault : t -> job:int -> unit
(** Account one page fault by [job] to the current window. *)

val tick : t -> now:int -> n_active:int -> n_parked:int -> verdict
(** Called by the scheduler whenever convenient (e.g. once per quantum).
    Returns [Steady] until a full window has elapsed; at a window
    boundary, closes the window (resetting its counters) and renders
    the hysteresis verdict.  At most one shed or admit per window. *)

val choose_victim : t -> candidates:(int * int) list -> int option
(** [choose_victim t ~candidates] picks the job to shed from
    [(job, resident_pages)] pairs: the largest space-time product over
    the last closed window.  [None] on an empty list.  Ties keep the
    earliest candidate. *)

val note_shed : t -> unit

val note_admit : t -> unit

val ticks : t -> int
(** Closed decision windows. *)

val sheds : t -> int

val admits : t -> int
