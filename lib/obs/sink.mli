(** Pluggable destinations for the event stream.

    Engines accept a sink (defaulting to {!null}) and report through
    it.  The contract for hot paths: guard each emission with
    {!is_active} so that with the {!null} sink the entire observability
    layer costs one branch and no allocation —

    {[
      if Obs.Sink.is_active t.obs then
        Obs.Sink.emit t.obs (Obs.Event.make ~t_us (Fault { page }))
    ]}

    (engines typically cache [is_active] in a [bool] field at creation,
    since a sink's activeness never changes). *)

type t

val null : t
(** Discards everything; {!is_active} is [false]. *)

val jsonl : out_channel -> t
(** Write each event as one JSON object per line
    ({!Event.to_channel}: the writer's bytes go straight to the channel).
    The caller owns the channel; {!flush} before closing it. *)

val collect : (Event.t -> unit) -> t
(** Hand every event to a callback: in-memory capture and custom
    aggregation. *)

val tee : t -> t -> t
(** Duplicate the stream into both sinks.  Collapses over {!null}:
    [tee null s] is [s], so wrapping an inactive sink stays inactive. *)

val segment : ?seed:int -> ?config:string -> run:int -> offset:int -> t -> t
(** Forward events with [offset] added to their timestamp, after
    emitting a {!Event.Run_start} boundary stamped [offset] (the
    shifted origin).  Experiments that splice several engine runs, each
    on a fresh clock, into one monotone stream use one [segment] per
    run, so that {!Check} can scope its invariants — request ids and
    first-touch sets restart at each boundary.  [seed] and [config] are
    stamped into the boundary event (with the trace schema version) so
    the recorded stream identifies the run that produced it.
    [segment ~run ~offset null] is {!null} and emits nothing. *)

(** {2 Splicing runs}

    An experiment that runs several engines, each on a fresh clock,
    splices them into one monotone stream through one splice: run [k]
    is the [k]th {!next} segment, offset by the sum of the spans
    {!advance}d before it. *)

type splice

val splice : ?seed:int -> t -> splice
(** Start a splice into a sink, at run 0 and offset 0.  [seed] is
    stamped into every run's boundary. *)

val next : splice -> config:string -> t
(** The next run's {!segment}: numbered one past the previous run, at
    the current offset, its boundary already emitted.  A splice into
    {!null} hands out {!null} and emits nothing. *)

val advance : splice -> int -> unit
(** [advance sp span] moves the offset past the run just taken: [span]
    is its extent in its own time, e.g. its clock at the end, or one
    past its last stamp. *)

val is_active : t -> bool
(** [false] exactly for {!null}.  Hot paths branch on this before
    constructing an event. *)

val emit : t -> Event.t -> unit

val flush : t -> unit
(** Flush any buffered output channels (recursing through tees). *)
