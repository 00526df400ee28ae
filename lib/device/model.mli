(** The timed backing-store model: a request queue feeding [channels]
    identical channels over one {!Geometry.t}, under a {!Sched.t}
    policy, with optional transient-read-error injection ({!Fault}).

    Requests are {e not} scheduled at submission.  They sit in the
    queue until a dispatch is forced or planned, so a request arriving
    later can still win the next free channel under SATF or priority
    scheduling — the whole point of the queueing layer.  All data
    movement stays with the caller (engines blit pages themselves);
    the model answers only {e when}.

    Two consumption styles, which must not be mixed on one instance:

    - {b Synchronous} ({!completion_us}, {!fetch}): for single-threaded
      engines that block on each answer.  Forcing a completion
      dispatches queued requests in policy order until the target is
      served — exact, because nothing else can submit while the engine
      waits.
    - {b Event-loop} ({!deliver_due}, {!take_completion}): for
      [Core.Multiprog].  Dispatch is gated on causality: a channel is
      not committed to a request while an undelivered completion
      precedes the dispatch instant, since the woken job's next request
      could compete for it.

    Obs note: [Io_start]/[Io_done]/[Io_retry] events are stamped with
    the planned service times, which run ahead of the engine's clock;
    they may interleave out of order with engine events (see
    {!Obs.Event}). *)

type config = {
  geometry : Geometry.t;
  sched : Sched.t;
  channels : int;
  fault : Fault.config option;
}

val config : ?sched:Sched.t -> ?channels:int -> ?fault:Fault.config -> Geometry.t -> config
(** Defaults: FIFO, 1 channel, no faults. *)

type t

type failure = {
  req : int;
  page : int;
  kind : Request.kind;
  attempts : int;  (** service attempts made before giving up *)
  at_us : int;  (** when the device gave up (channel time) *)
}
(** A terminal request failure: a permanent media error, or the retry
    budget exhausted under {!Fault.Fail} escalation.  Only possible
    when the model's fault config says so; the default (and every
    [Degrade]-policy) configuration never produces one. *)

val create : ?obs:Obs.Sink.t -> config -> t

val label : t -> string
(** e.g. ["drum/satf/2ch"]. *)

val submit :
  ?immune:bool -> t -> now:int -> kind:Request.kind -> page:int -> words:int -> int
(** Enqueue a request arriving at [now] (engine clock, monotone);
    returns its id.  No channel is committed yet.  [immune] (default
    false) exempts the request from fault injection — the transport for
    recovery re-fetches. *)

val completion_us : t -> int -> int
(** [completion_us t id] forces request [id] to completion and returns
    its finish time, dispatching any queued requests the policy puts
    ahead of it first.  Consumes the completion: a second call for the
    same id raises [Invalid_argument], as does an id never submitted.
    A terminally-failed request still finishes in time; use
    {!failure_of} or {!result_us} to learn the data never arrived. *)

val result_us : t -> int -> (int, failure) result
(** Like {!completion_us}, but [Error] when the request terminally
    failed.  Consumes both the completion and the failure record. *)

val failure_of : t -> int -> failure option
(** [failure_of t id] is the terminal failure of a request whose
    completion was already delivered (via {!completion_us},
    {!deliver_due} or {!take_completion}), if any; consumes the
    record.  Event-loop engines call this on every delivery. *)

val fetch : t -> now:int -> kind:Request.kind -> page:int -> words:int -> int
(** [submit] + [completion_us] in one step — the common synchronous
    path. *)

val fetch_result :
  ?immune:bool ->
  t -> now:int -> kind:Request.kind -> page:int -> words:int ->
  (int, failure) result
(** [submit] + [result_us] in one step — the synchronous path for
    engines that handle failures. *)

val deliver_due : t -> now:int -> (int -> int -> unit) -> unit
(** [deliver_due t ~now f] advances the device to [now]: dispatches
    every causally-safe request whose dispatch instant is <= [now] and
    calls [f id finish_us] for each completion due by [now], oldest
    first, interleaved in causal order. *)

val take_completion : t -> (int * int) option
(** Next completion [(id, finish_us)] in finish order, dispatching as
    needed; the engine blocks until then.  [None] iff the device is
    idle and the queue empty. *)

val pending : t -> int
(** Requests submitted but not yet dispatched. *)

type stats = {
  served : int;
  read_served : int;
  mean_read_latency_us : float;  (** submission -> completion, reads *)
  mean_queue_depth : float;
  max_queue_depth : int;
  busy_us : int;  (** total channel busy time *)
  injected : int;  (** read-attempt errors injected *)
  write_injected : int;  (** write-attempt errors injected *)
  permanent : int;  (** injected errors marked permanent *)
  retries : int;
  degraded : int;  (** requests served by the degraded worst-case pass *)
  failed : int;  (** requests that terminally failed ({!failure}) *)
  write_rolls_skipped : int;
      (** write attempts never at risk ([write_error_prob = 0]) *)
  pending : int;
}

val stats : t -> stats
