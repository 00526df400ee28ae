type job_report = {
  job : string;
  refs : int;
  faults : int;
  finish_us : int;
  restarts : int;
  completed : bool;
}

type report = {
  elapsed_us : int;
  cpu_busy_us : int;
  cpu_utilization : float;
  total_faults : int;
  restarts : int;
  jobs_failed : int;
  jobs : job_report list;
}

type job_state = {
  spec : Workload.Job.t;
  index : int;
  mutable pos : int;
  mutable faults : int;
  mutable finish_us : int;
  mutable finished : bool;
  mutable restarts : int;
  mutable completed : bool;
  mutable parked : bool;  (* shed by the load controller; not scheduled *)
}

(* The ready time of a page that is not resident. *)
let absent = -1

let run ?(quantum_refs = 50) ?(obs = Obs.Sink.null) ?device ?(max_restarts = 3)
    ?controller ~frames ~policy ~fetch_us specs =
  assert (frames > 0 && fetch_us >= 0 && quantum_refs > 0 && max_restarts >= 0);
  let tracing = Obs.Sink.is_active obs in
  let jobs =
    Array.of_list
      (List.mapi
         (fun index spec ->
           { spec; index; pos = 0; faults = 0; finish_us = 0; finished = false;
             restarts = 0; completed = false; parked = false })
         specs)
  in
  assert (Array.length jobs > 0);
  (* A page is known by its slot [job * stride + page]: the policy and
     the resident set see slots, and [ready_at.(slot)] is when the
     page's fetch completes ([absent] when it is not resident).  Traces
     and the device see the job-tagged key, the job above bit 32; slots
     and keys sort alike. *)
  let stride =
    Array.fold_left
      (fun m j -> Int.max m (Workload.Trace.extent j.spec.Workload.Job.refs))
      0 jobs
  in
  let job_of s = s / stride in
  let key s = (job_of s lsl 32) lor (s mod stride) in
  let slot_of_key k = ((k lsr 32) * stride) + (k land 0xFFFF_FFFF) in
  let ready_at = Array.make (Array.length jobs * stride) absent in
  let ready : int Queue.t = Queue.create () in
  let blocked : int Sim.Heap.t = Sim.Heap.create () in
  (* Device mode only: how many requests await delivery, and jobs
     stalled because every frame held an in-flight page (woken on any
     completion, which makes a frame evictable again). *)
  let outstanding = ref 0 in
  let stalled : int Queue.t = Queue.create () in
  (* Load control: runnable-but-parked jobs, and shed order for FIFO
     re-admission. *)
  let parked_ready : int Queue.t = Queue.create () in
  let shed_order : int Queue.t = Queue.create () in
  Array.iter (fun j -> Queue.add j.index ready) jobs;
  let now = ref 0 and busy = ref 0 and device_free_at = ref 0 in
  let finished = ref 0 in
  let failed = ref 0 in
  (* An in-flight fetch whose completion the device has not yet
     committed to a time (requests queue and may be reordered). *)
  let in_flight = max_int in
  (* The resident slots under the policy; a page whose fetch has not
     completed is pinned. *)
  let resident =
    Paging.Frames.create
      ~pinned:(fun s -> ready_at.(s) > !now)
      ~capacity:frames ~keys:(Array.length jobs * stride) policy
  in
  let emit kind = Obs.Sink.emit obs (Obs.Event.make ~t_us:!now kind) in
  if tracing then Array.iter (fun j -> emit (Obs.Event.Job_start { job = j.index })) jobs;
  let drop s =
    Paging.Frames.remove resident ~page:s;
    ready_at.(s) <- absent;
    if tracing then emit (Obs.Event.Eviction { page = key s })
  in
  (* Drop every committed-resident page of job [idx] (its in-flight
     pages, if any, stay resident and resolve on delivery), walking a
     copy of the members, since [drop] shifts the set's own array. *)
  let evict_job_pages idx =
    Array.iter
      (fun s -> if job_of s = idx && ready_at.(s) <> in_flight then drop s)
      (Array.copy (Paging.Frames.elements resident))
  in
  let unpark j =
    if j.parked then begin
      j.parked <- false;
      (match controller with
       | Some c -> Resilience.Controller.note_admit c
       | None -> ());
      if tracing then emit (Obs.Event.Load_admit { job = j.index })
    end
  in
  let finish_job ?(completed = true) j =
    unpark j;  (* a failed shed job leaves the shed set before stopping *)
    j.finished <- true;
    j.completed <- completed;
    j.finish_us <- !now;
    incr finished;
    if not completed then incr failed;
    if tracing then emit (Obs.Event.Job_stop { job = j.index })
  in
  (* Recovery for an unrecoverable fetch: abort the job and restart it
     from the beginning — its working set is dropped, its reference
     position rewinds — up to [max_restarts] times, after which the job
     is stopped and reported failed. *)
  let abort_job j ~s =
    (* A shed job can still have the fetch that was in flight when it
       was parked; the failure empties its working set anyway, so the
       abort re-admits it rather than restarting a parked job. *)
    unpark j;
    (* the fault announced page [s], and the policy saw it load; retract
       it before the job's committed pages go *)
    drop s;
    evict_job_pages j.index;
    if j.restarts < max_restarts then begin
      j.restarts <- j.restarts + 1;
      j.pos <- 0;
      if tracing then emit (Obs.Event.Job_abort { job = j.index; restarts = j.restarts });
      Queue.add j.index ready
    end
    else finish_job ~completed:false j;
    Queue.transfer stalled ready
  in
  (* A device answer: the request's page is the job-tagged key of an
     in-flight slot, and the clock catches up when the processor was
     idle waiting for it. *)
  let deliver ~id:_ ~page ~finish_us failure =
    decr outstanding;
    now := Int.max !now finish_us;
    let s = slot_of_key page in
    match failure with
    | Some _ -> abort_job jobs.(job_of s) ~s
    | None ->
      ready_at.(s) <- finish_us;
      Queue.add (job_of s) ready;
      Queue.transfer stalled ready
  in
  let start_fetch j s =
    j.faults <- j.faults + 1;
    (match controller with
     | Some c -> Resilience.Controller.observe_fault c ~job:j.index
     | None -> ());
    if tracing then emit (Obs.Event.Fault { page = key s });
    (match device with
     | None ->
       let start = Int.max !now !device_free_at in
       let finish = start + fetch_us in
       device_free_at := finish;
       ready_at.(s) <- finish;
       Sim.Heap.add blocked finish j.index
     | Some m ->
       let (_ : int) =
         Device.Model.submit m ~now:!now ~kind:Device.Request.Demand ~page:(key s)
           ~words:0
       in
       incr outstanding;
       ready_at.(s) <- in_flight)
  in
  (* Run job [j] until it faults, exhausts its quantum, or finishes.
     Returns true if it should be requeued as ready. *)
  let execute j =
    Obs.Prof.span "multiprog.execute" @@ fun () ->
    let compute_us = j.spec.Workload.Job.compute_us_per_ref in
    let executed = ref 0 in
    let rec step quantum =
      if j.pos >= Array.length j.spec.Workload.Job.refs then begin
        finish_job j;
        false
      end
      else if quantum = 0 then true
      else begin
        let s = (j.index * stride) + j.spec.Workload.Job.refs.(j.pos) in
        (* a job that faulted here retries this reference once its page
           lands, and the policy hears of it a second time *)
        Paging.Frames.reference resident ~page:s ~write:false;
        let ready = ready_at.(s) in
        if ready <> absent && ready <= !now then begin
          j.pos <- j.pos + 1;
          incr executed;
          now := !now + compute_us;
          busy := !busy + compute_us;
          step (quantum - 1)
        end
        else if ready <> absent then begin
          (* Our own page is still in flight; wait for it. *)
          if ready = in_flight then Queue.add j.index stalled
          else Sim.Heap.add blocked ready j.index;
          false
        end
        else begin
          let outcome =
            if Paging.Frames.length resident < frames then Paging.Frames.fault resident ~page:s
            else
              Obs.Prof.span "multiprog.victim" (fun () -> Paging.Frames.fault resident ~page:s)
          in
          if outcome = Paging.Frames.stalled then begin
            (* Everything in flight: stall until something arrives. *)
            (match device with
             | Some _ -> Queue.add j.index stalled
             | None ->
               let earliest =
                 Array.fold_left
                   (fun acc s -> Int.min acc ready_at.(s))
                   max_int (Paging.Frames.elements resident)
               in
               Sim.Heap.add blocked earliest j.index);
            false
          end
          else begin
            if outcome >= 0 then begin
              ready_at.(outcome) <- absent;
              if tracing then emit (Obs.Event.Eviction { page = key outcome })
            end;
            start_fetch j s;
            false
          end
        end
      end
    in
    let requeue = step quantum_refs in
    (match controller with
     | Some c when !executed > 0 ->
       Resilience.Controller.observe_execute c ~us:(!executed * compute_us)
     | Some _ | None -> ());
    requeue
  in
  let wake_due () =
    let rec loop () =
      match Sim.Heap.min blocked with
      | Some (at, _) when at <= !now ->
        (match Sim.Heap.pop blocked with
         | Some (_, idx) -> Queue.add idx ready
         | None -> ());
        loop ()
      | Some _ | None -> ()
    in
    loop ()
  in
  let occupancy idx =
    Array.fold_left
      (fun n s -> if job_of s = idx then n + 1 else n)
      0 (Paging.Frames.elements resident)
  in
  let shed_one c =
    let candidates =
      Array.to_list jobs
      |> List.filter_map (fun j ->
             if j.finished || j.parked then None
             else Some (j.index, occupancy j.index))
    in
    (* keep at least one job active even if tick raced a finish *)
    if List.length candidates > 1 then
      match Resilience.Controller.choose_victim c ~candidates with
      | None -> ()
      | Some idx ->
        let j = jobs.(idx) in
        j.parked <- true;
        Queue.add idx shed_order;
        Resilience.Controller.note_shed c;
        if tracing then emit (Obs.Event.Load_shed { job = idx });
        (* the shed job's working set goes back to the drum: that is
           the point — its frames relieve the others *)
        evict_job_pages idx
  in
  let admit_one () =
    let rec next () =
      match Queue.take_opt shed_order with
      | None -> false
      | Some idx ->
        let j = jobs.(idx) in
        if j.finished || not j.parked then next ()
        else begin
          unpark j;
          (* runnable-but-parked jobs bounce through parked_ready; put
             everyone back and let the parked flag re-sort them *)
          Queue.transfer parked_ready ready;
          true
        end
    in
    next ()
  in
  let control_tick () =
    Obs.Prof.span "multiprog.control" @@ fun () ->
    match controller with
    | None -> ()
    | Some c ->
      let n_active = ref 0 and n_parked = ref 0 in
      Array.iter
        (fun j ->
          if not j.finished then
            if j.parked then incr n_parked else incr n_active)
        jobs;
      (match Resilience.Controller.tick c ~now:!now ~n_active:!n_active
               ~n_parked:!n_parked
       with
       | Resilience.Controller.Steady -> ()
       | Resilience.Controller.Shed_one -> shed_one c
       | Resilience.Controller.Admit_one ->
         let (_ : bool) = admit_one () in
         ())
  in
  (* If scheduling has gone quiet but parked runnable jobs remain, the
     controller's watermarks are moot: force re-admission rather than
     idle forever (and rather than hit the no-pending-work assert). *)
  let force_admissions () =
    match controller with
    | None -> ()
    | Some _ ->
      let progress = ref true in
      while
        !progress
        && Queue.is_empty ready
        && (not (Queue.is_empty parked_ready))
        && !outstanding = 0
        && Sim.Heap.min blocked = None
      do
        progress := admit_one ()
      done
  in
  while !finished < Array.length jobs do
    (match device with
     | Some m -> Device.Model.deliver_due m ~now:!now deliver
     | None -> ());
    wake_due ();
    control_tick ();
    force_admissions ();
    if Queue.is_empty ready then begin
      (* Processor idle until the next fetch completes. *)
      match device with
      | Some m ->
        (* unfinished jobs must await some request *)
        if not (Device.Model.take_completion m deliver) then assert false
      | None ->
        (match Sim.Heap.min blocked with
         | Some (at, _) -> now := Int.max !now at
         | None -> assert false  (* unfinished jobs must be ready or blocked *))
    end
    else begin
      let idx = Queue.pop ready in
      let j = jobs.(idx) in
      if not j.finished then
        if j.parked then Queue.add idx parked_ready
        else if execute j then Queue.add idx ready
    end
  done;
  let elapsed = !now in
  {
    elapsed_us = elapsed;
    cpu_busy_us = !busy;
    cpu_utilization = (if elapsed = 0 then 1. else float_of_int !busy /. float_of_int elapsed);
    total_faults = Array.fold_left (fun acc j -> acc + j.faults) 0 jobs;
    restarts = Array.fold_left (fun acc j -> acc + j.restarts) 0 jobs;
    jobs_failed = !failed;
    jobs =
      Array.to_list
        (Array.map
           (fun j ->
             {
               job = j.spec.Workload.Job.name;
               refs = Array.length j.spec.Workload.Job.refs;
               faults = j.faults;
               finish_us = j.finish_us;
               restarts = j.restarts;
               completed = j.completed;
             })
           jobs);
  }
