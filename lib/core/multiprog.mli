(** Multiprogrammed demand paging: overlapping fetches with execution.

    The paper (via ATLAS and the M44/44X): "A large space-time product
    will not overly affect the performance of a system if the time spent
    on fetching pages can normally be overlapped with the execution of
    other programs."  This simulator runs k jobs round-robin on one
    processor over a shared frame pool and one backing-store channel: a
    faulting job blocks until its page arrives while the processor picks
    the next ready job.  Experiment C7 sweeps k and the fetch time and
    reads off processor utilization. *)

type job_report = {
  job : string;
  refs : int;
  faults : int;
  finish_us : int;
  restarts : int;  (** abort-and-restart recoveries this job went through *)
  completed : bool;  (** [false]: the job exhausted its restart budget *)
}

type report = {
  elapsed_us : int;  (** when the last job finished *)
  cpu_busy_us : int;
  cpu_utilization : float;
  total_faults : int;
  restarts : int;  (** abort-and-restart recoveries across all jobs *)
  jobs_failed : int;  (** jobs stopped with their restart budget spent *)
  jobs : job_report list;
}

val run :
  ?quantum_refs:int ->
  ?obs:Obs.Sink.t ->
  ?device:Device.Model.t ->
  ?max_restarts:int ->
  ?controller:Resilience.Controller.t ->
  frames:int ->
  policy:Paging.Replacement.t ->
  fetch_us:int ->
  Workload.Job.t list ->
  report
(** [frames] is the shared pool; pages of different jobs never collide.
    [policy] arbitrates the shared pool, and it sees each page by its
    slot [job * stride + page], where [stride] is the largest
    {!Workload.Trace.extent} among the jobs: dense keys, as
    {!Paging.Replacement} asks.  Traces and the device see the
    job-tagged key [(job lsl 32) lor page] instead; slots and keys sort
    alike, so the policy's choices do not depend on which it sees.  [fetch_us] is the page fetch time; fetches queue on a single
    channel.  [quantum_refs] (default 50) bounds how long a job keeps
    the processor without faulting.

    With a [device], fetches become queued requests against the timed
    backing-store model instead of the flat [fetch_us] channel: a
    faulting job sleeps until the device delivers its request, so
    rotational position, multiple channels, and the scheduling policy
    all shape utilization.  A delivery names the job-tagged key, from
    which the job and the slot follow, and carries the failure, if any;
    the scheduler keeps no table of its requests.  Without a device,
    behaviour is bit-identical to before the device subsystem
    existed.

    With a sink, the scheduler reports job_start / job_stop plus fault
    and eviction events on the shared simulated clock; fault and
    eviction pages are the job-tagged keys.

    {b Failure recovery.}  A terminal fetch failure (a device under a
    [Fault.Fail] escalation policy) aborts the owning job: its resident
    pages are dropped (traced as evictions), its reference position
    rewinds to the start, and it is re-admitted — a [job_abort] event,
    up to [max_restarts] (default 3) times per job.  A job that
    exhausts the budget stops with [completed = false] and is counted
    in [jobs_failed].

    {b Load control.}  With a [controller], the scheduler reports
    compute progress and faults to it, ticks it every loop iteration,
    and obeys its verdicts: shedding parks the chosen job (its working
    set is evicted, [load_shed] is traced) and re-admission wakes the
    longest-shed one ([load_admit]); if scheduling would otherwise go
    idle with parked jobs remaining, they are force re-admitted.  Read
    shed/admit counts off the controller afterwards. *)
