(** Experiment C1 — paging obscures, not prevents, fragmentation
    (conclusions, v).

    One allocation mix (small-skewed object sizes under steady-state
    churn) is served three ways: by the variable-unit boundary-tag
    allocator (waste appears as {e external} fragmentation — shattered
    holes), by the buddy system (rounding waste), and by paging at
    several frame sizes (waste appears as {e internal} fragmentation —
    partly-used frames).  Reported as wasted fraction of the storage
    actually claimed, so the disciplines are directly comparable. *)

type row = {
  discipline : string;
  claimed : int;  (** words of store claimed from the system *)
  live : int;  (** words actually requested and live *)
  wasted_fraction : float;
  detail : string;
}

val point :
  ?obs:Obs.Sink.t ->
  ?words:int ->
  rng:Sim.Rng.t ->
  steps:int ->
  Freelist.Policy.t ->
  C2_placement.outcome
(** One variable-unit run, the grid point behind the variable row of
    {!measure} and the campaign frag_unit cell: [steps] events of the
    small-skewed mix (geometric sizes, mean 90 words, ~300 live) drawn
    from [rng], served under one placement policy in a [words]-word
    store (131072).  [measure] draws its stream at site 2024, the cell
    at site 31. *)

val measure : ?quick:bool -> ?seed:int -> unit -> row list

val run : ?quick:bool -> ?obs:Obs.Sink.t -> ?seed:int -> unit -> unit
