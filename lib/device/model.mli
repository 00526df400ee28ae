(** The timed backing-store model: a request queue feeding [channels]
    identical channels over one {!Geometry.t}, under a {!Sched.t}
    policy, with optional transient-read-error injection ({!Fault}).

    Requests are {e not} scheduled at submission.  They sit in the
    queue until a dispatch is forced or planned, so a request arriving
    later can still win the next free channel under SATF or priority
    scheduling — the whole point of the queueing layer.  All data
    movement stays with the caller (engines blit pages themselves);
    the model answers only {e when}.

    A request is answered once, on the path that asked for it, and the
    model keeps nothing of it afterwards:

    - {b The synchronous call} ({!fetch_result}): for single-threaded
      engines that block on each answer.  It queues one request,
      dispatches queued requests in policy order until that one is
      served, and returns its outcome — exact, because nothing else can
      submit while the engine waits.  The requests it serves on the
      way, such as the writebacks such an engine {!submit}s and never
      waits for, get no answer.
    - {b Deliveries} ({!deliver_due}, {!take_completion}): for
      event-loop engines such as [Core.Multiprog].  Each request they
      dispatch is handed to the caller's callback once, with its page,
      finish time and failure.  Dispatch is gated on causality: a
      channel is not committed to a request while an undelivered
      completion precedes the dispatch instant, since the woken job's
      next request could compete for it.

    {b The queue and the plan.}  Waiting requests sit in one array in
    arrival order.  {!submit} clamps each arrival to the latest one so
    far and ids only increase, so index order is the [(arrival_us, id)]
    order every policy breaks ties by, and the requests that compete at
    a dispatch instant are a prefix of the queue ({!Sched.pick}).  The
    next dispatch (channel, request, instant) is planned when it is
    first asked for and kept until a {!submit} or a dispatch; delivering
    a completion does not change it.  A plan costs O(channels) plus the
    prefix the policy reads: one request under FIFO, up to the first
    demand fault under priority, up to the first request that can start
    at once under SATF.  Taking the planned request out shifts the
    requests ahead of it, so costs no more than the plan; holding its
    answer for a delivery is O(log) in the undelivered answers.  The
    array is sized by the deepest queue, and the only table keyed by
    request id holds the failures not yet delivered.

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
    recovery re-fetches.  O(1) amortised; the plan must be made again.
    Its answer is a delivery, unless a {!fetch_result} serves it first. *)

val fetch_result :
  ?immune:bool ->
  t -> now:int -> kind:Request.kind -> page:int -> words:int ->
  (int, failure) result
(** [submit], then dispatch until that request is served: its finish
    time, or [Error] when it terminally failed (it still finishes in
    time, at [at_us]).  Each dispatch costs one plan. *)

val deliver_due :
  t -> now:int -> (id:int -> page:int -> finish_us:int -> failure option -> unit) -> unit
(** [deliver_due t ~now f] advances the device to [now]: dispatches
    every causally-safe request whose dispatch instant is <= [now] and
    calls [f ~id ~page ~finish_us failure] for each completion due by
    [now], oldest first, interleaved in causal order; [failure] is
    [Some] when the request terminally failed.  Each dispatch costs one
    plan; a call with nothing to deliver or dispatch costs O(1) once
    the plan is made. *)

val take_completion :
  t -> (id:int -> page:int -> finish_us:int -> failure option -> unit) -> bool
(** Deliver the next completion in finish order to the callback, as
    {!deliver_due} does, dispatching as needed; the engine blocks until
    then.  [false] iff the device is idle and the queue empty.  Each
    dispatch costs one plan. *)

val pending : t -> int
(** Requests submitted but not yet dispatched.  O(1). *)

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
