(** Extension X1 — the compaction ablation (DESIGN.md ◊).

    The paper's "two main alternative courses of action" against
    external fragmentation: accept the lost utilization, or "move
    information around in storage so as to remove any unused spaces".
    Same churn stream with periodic large requests, served by best fit
    with and without compact-on-failure (through the storage-to-storage
    channel, with handles keeping references valid), and by the
    two-ends policy as the paper's non-moving alternative. *)

type row = {
  variant : string;
  placed : int;
  failed : int;  (** requests unsatisfied even after any compaction *)
  compactions : int;
  words_moved : int;
  move_time_us : int;
  final_frag : float;
}

val measure : ?quick:bool -> ?obs:Obs.Sink.t -> ?seed:int -> unit -> row list
(** With a sink, each variant reports alloc / free / split / coalesce
    and (for the compacting variant) compaction_move events; variants
    are spliced with {!Obs.Sink.segment} so timestamps stay monotone. *)

val run : ?quick:bool -> ?obs:Obs.Sink.t -> ?seed:int -> unit -> unit
