(** Machine-readable run summaries, shared by the CLI surfaces
    ([dsas_sim replay --json], [dsas_sim stats]). *)

type replay = {
  policy : string;
  frames : int;
  refs : int;
  faults : int;
  cold : int;
  evictions : int;
}
(** What one fault-simulator replay measured. *)

val replay_fault_rate : replay -> float

val replay_to_json : replay -> string

type trace_stats = {
  events : int;
  t_first_us : int;  (** 0 when the trace is empty *)
  t_last_us : int;
  kinds : (string * int) list;  (** events per kind, sorted by name; zero counts omitted *)
}
(** Offline aggregate of a recorded event stream. *)

val count : trace_stats -> string -> int
(** Events of one kind (by wire name), 0 if absent. *)

val of_events : Event.t list -> trace_stats

val trace_stats_to_json : trace_stats -> string

val print_trace_stats : trace_stats -> unit
(** Human-readable table on stdout. *)
