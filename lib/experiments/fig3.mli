(** Experiment F3 — storage utilization with demand paging (Fig. 3).

    One program runs a locality trace under demand paging while the
    page-fetch time is swept from fast-drum to slow-disk values.  For
    each fetch speed the space-time product is split into the Active
    part (program executing) and the Waiting part (program suspended,
    still occupying its frames, awaiting a page) — the shaded regions of
    the paper's figure.  The paper's claim: "If page fetching is a slow
    process, a large part of the space-time product for a program may
    well be due to space occupied while the program is inactive awaiting
    further pages." *)

type row = {
  device : string;
  fetch_us : int;  (** cost of one page transfer *)
  active : float;
  waiting : float;
  waiting_fraction : float;
  profile : string;  (** the rendered Fig. 3 silhouette of this run *)
  faults : int;
  refs : int;
  elapsed_us : int;  (** simulated time the run took *)
}

val devices : Memstore.Device.t list
(** The fetch-speed sweep: fast-drum, drum, slow-drum, disk. *)

val point :
  ?obs:Obs.Sink.t ->
  ?seed:int ->
  ?frames:int ->
  ?policy:Paging.Spec.t ->
  refs:int ->
  Memstore.Device.t ->
  row
(** One timed demand-paging run, the grid point behind {!measure} and
    the campaign paging cell: a [refs]-reference phased trace over 24
    pages of 256 words, in [frames] core frames (12) under [policy]
    (LRU), paging from one backing device. *)

val measure : ?quick:bool -> ?obs:Obs.Sink.t -> ?seed:int -> unit -> row list
(** With a sink, every device run reports its paging events; successive
    runs (each on a fresh clock) are spliced with {!Obs.Sink.segment} so
    timestamps stay monotone across the whole sweep. *)

val run : ?quick:bool -> ?obs:Obs.Sink.t -> ?seed:int -> unit -> unit
