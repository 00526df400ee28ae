type config = {
  page_size : int;
  frames : int;
  pages : int;
  core : Memstore.Level.t;
  backing : Memstore.Level.t;
  policy : Replacement.t;
  tlb : Tlb.t option;
  compute_us_per_ref : int;
}

type recovery = Mirror | Surface

type t = {
  cfg : config;
  device : Device.Model.t option;  (* timed backing store; None = flat latency *)
  recovery : recovery;
  page_table : Page_table.t;
  resident : Resident.t;  (* resident pages *)
  free : Resident.t;  (* free frames, the lowest taken first *)
  ready_at : int array;  (* per page: completion time of an in-flight fetch *)
  space_time : Metrics.Space_time.t;
  timeline : Metrics.Timeline.t;
  obs : Obs.Sink.t;
  tracing : bool;
  touched : Bytes.t;  (* cold-fault tracking; empty unless tracing *)
  mutable refs : int;
  mutable next_req : int;  (* request ids for flat-path io events *)
  mutable faults : int;
  mutable writebacks : int;
  mutable prefetches : int;
  mutable advice_releases : int;
  mutable mirror_fetches : int;
  mutable hard_failures : int;
}

let create ?(obs = Obs.Sink.null) ?device ?(recovery = Mirror) cfg =
  assert (cfg.page_size > 0 && cfg.frames > 0 && cfg.pages > 0);
  assert (Memstore.Level.size cfg.core >= cfg.frames * cfg.page_size);
  assert (Memstore.Level.size cfg.backing >= cfg.pages * cfg.page_size);
  let tracing = Obs.Sink.is_active obs in
  let free = Resident.create ~capacity:cfg.frames in
  for frame = 0 to cfg.frames - 1 do
    Resident.add free frame
  done;
  {
    cfg;
    device;
    recovery;
    page_table = Page_table.create ~pages:cfg.pages;
    resident = Resident.create ~capacity:cfg.frames;
    free;
    ready_at = Array.make cfg.pages 0;
    space_time = Metrics.Space_time.create ();
    timeline = Metrics.Timeline.create ();
    obs;
    tracing;
    touched = (if tracing then Bytes.make cfg.pages '\000' else Bytes.empty);
    refs = 0;
    next_req = 0;
    faults = 0;
    writebacks = 0;
    prefetches = 0;
    advice_releases = 0;
    mirror_fetches = 0;
    hard_failures = 0;
  }

let clock t = Memstore.Level.clock t.cfg.core

let emit t kind = Obs.Sink.emit t.obs (Obs.Event.make ~t_us:(Sim.Clock.now (clock t)) kind)

(* The flat (device-less) path still performs timed transfers; give them
   io_start/io_done pairs so latency queries work on every traced run.
   The device model keeps its own request ids; an engine is flat or
   timed for its whole life, so the two counters never share a trace. *)
let emit_io_pair t ~io ~page ~finish =
  let req = t.next_req in
  t.next_req <- req + 1;
  let start = Sim.Clock.now (clock t) in
  Obs.Sink.emit t.obs (Obs.Event.make ~t_us:start (Obs.Event.Io_start { req; page; io }));
  Obs.Sink.emit t.obs (Obs.Event.make ~t_us:finish (Obs.Event.Io_done { req; page; io }))

let resident_count t = Resident.length t.resident

let resident_words t = resident_count t * t.cfg.page_size

(* Run [f] and accrue the simulated time it consumes to the space-time
   product, with the residency held while it ran. *)
let timed t state f =
  let words = resident_words t in
  let before = Sim.Clock.now (clock t) in
  let result = f () in
  let dt = Sim.Clock.now (clock t) - before in
  Metrics.Space_time.accrue t.space_time ~words ~dt state;
  Metrics.Timeline.record t.timeline ~at:before ~dt ~words state;
  result

let candidates t =
  Resident.filter t.resident (fun page -> not (Page_table.locked t.page_table ~page))

let evict_page t page =
  let frame =
    match Page_table.frame_of t.page_table page with
    | Some f -> f
    | None -> invalid_arg "Demand: evicting non-resident page"
  in
  (match t.cfg.tlb with Some tlb -> Tlb.invalidate tlb ~key:page | None -> ());
  if Page_table.modified t.page_table ~page then begin
    (* Asynchronous write-back: the program does not wait, but the
       backing device is busy, delaying any fetch queued behind it. *)
    (match t.device with
     | None ->
       let finish =
         Memstore.Level.transfer_async ~src:t.cfg.core
           ~src_off:(frame * t.cfg.page_size) ~dst:t.cfg.backing
           ~dst_off:(page * t.cfg.page_size) ~len:t.cfg.page_size
       in
       if t.tracing then emit_io_pair t ~io:Obs.Event.Writeback ~page ~finish
     | Some m ->
       Memstore.Physical.blit
         ~src:(Memstore.Level.physical t.cfg.core)
         ~src_off:(frame * t.cfg.page_size)
         ~dst:(Memstore.Level.physical t.cfg.backing)
         ~dst_off:(page * t.cfg.page_size) ~len:t.cfg.page_size;
       let (_ : int) =
         Device.Model.submit m ~now:(Sim.Clock.now (clock t))
           ~kind:Device.Request.Writeback ~page ~words:t.cfg.page_size
       in
       ());
    t.writebacks <- t.writebacks + 1;
    if t.tracing then emit t (Writeback { page })
  end;
  Page_table.evict t.page_table ~page;
  Resident.remove t.resident page;
  Resident.add t.free frame;
  t.cfg.policy.Replacement.on_evict ~page;
  if t.tracing then emit t (Eviction { page })

let free_a_frame t =
  match Resident.lowest t.free with
  | Some frame -> frame
  | None ->
    let pool = candidates t in
    (* lint: allow L4 — all frames locked is a documented fatal misconfiguration *)
    if Array.length pool = 0 then failwith "Demand: every frame is locked";
    let victim =
      Obs.Prof.span "demand.victim" (fun () ->
          t.cfg.policy.Replacement.choose_victim ~candidates:pool)
    in
    evict_page t victim;
    (match Resident.lowest t.free with
     | Some frame -> frame
     | None -> assert false)

let install t ~page ~frame ~finish =
  Resident.remove t.free frame;
  Resident.add t.resident page;
  Page_table.install t.page_table ~page ~frame;
  t.ready_at.(page) <- finish;
  t.cfg.policy.Replacement.on_load ~page

(* Start the page moving from backing store into a frame; the recorded
   ready time is when the data is usable.  With a device model the
   completion is forced now: queued traffic the policy puts ahead (an
   earlier write-back under FIFO, say) delays it, exactly the
   contention the flat path approximated with [busy_until].

   A terminal device failure (only possible under a [Fault.Fail]
   escalation policy) is handled per the engine's recovery mode:
   [Mirror] re-reads the page over a fault-immune path — the duplexed
   copy — paying the extra queueing delay but always succeeding;
   [Surface] leaves the page non-resident and hands the typed failure
   to the caller. *)
let start_fetch t ~kind ~page ~frame =
  Obs.Prof.span "demand.fetch" @@ fun () ->
  match t.device with
  | None ->
    let finish =
      Memstore.Level.transfer_async ~src:t.cfg.backing
        ~src_off:(page * t.cfg.page_size) ~dst:t.cfg.core
        ~dst_off:(frame * t.cfg.page_size) ~len:t.cfg.page_size
    in
    if t.tracing then emit_io_pair t ~io:kind ~page ~finish;
    install t ~page ~frame ~finish;
    Ok ()
  | Some m ->
    Memstore.Physical.blit
      ~src:(Memstore.Level.physical t.cfg.backing)
      ~src_off:(page * t.cfg.page_size)
      ~dst:(Memstore.Level.physical t.cfg.core)
      ~dst_off:(frame * t.cfg.page_size) ~len:t.cfg.page_size;
    (match
       Device.Model.fetch_result m ~now:(Sim.Clock.now (clock t)) ~kind ~page
         ~words:t.cfg.page_size
     with
     | Ok finish ->
       install t ~page ~frame ~finish;
       Ok ()
     | Error f ->
       (match t.recovery with
        | Mirror ->
          t.mirror_fetches <- t.mirror_fetches + 1;
          (match
             Device.Model.fetch_result ~immune:true m ~now:f.at_us ~kind ~page
               ~words:t.cfg.page_size
           with
           | Ok finish ->
             install t ~page ~frame ~finish;
             Ok ()
           | Error _ -> assert false (* immune requests never fail *))
        | Surface ->
          t.hard_failures <- t.hard_failures + 1;
          (* The program waited for the failed transfer; charge it, and
             keep later events (the retracting eviction) monotone with
             the io_error the device just emitted. *)
          Sim.Clock.advance_to (clock t) f.at_us;
          Error (Resilience.Failure.of_device f)))

let fault t page =
  Obs.Prof.span "demand.fault" @@ fun () ->
  t.faults <- t.faults + 1;
  if t.tracing then begin
    emit t (Fault { page });
    if Bytes.get t.touched page = '\000' then begin
      Bytes.set t.touched page '\001';
      emit t (Cold_fault { page })
    end
  end;
  let frame = free_a_frame t in
  match start_fetch t ~kind:Device.Request.Demand ~page ~frame with
  | Ok () -> Ok ()
  | Error f ->
    (* The fetch never landed: retract the page so the trace's
       residency stays conserved (the fault above announced it). *)
    if t.tracing then emit t (Eviction { page });
    Error f

(* Wait for an in-flight fetch of a now-resident page to land. *)
let await t page =
  let ready = t.ready_at.(page) in
  if ready > Sim.Clock.now (clock t) then
    timed t Metrics.Space_time.Waiting (fun () ->
        Sim.Clock.advance_to (clock t) ready)

let translate t page =
  (* The mapping consult: free on a TLB hit, one working-storage access
     otherwise (the map lives in core, as on the M44). *)
  let map_cost () =
    timed t Metrics.Space_time.Active (fun () ->
        Sim.Clock.advance (clock t)
          (Memstore.Device.word_access_us (Memstore.Level.device t.cfg.core)))
  in
  match t.cfg.tlb with
  | None ->
    map_cost ();
    Page_table.frame_of t.page_table page
  | Some tlb ->
    (match Tlb.lookup tlb page with
     | Some frame ->
       if t.tracing then emit t (Tlb_hit { key = page });
       Some frame
     | None ->
       if t.tracing then emit t (Tlb_miss { key = page });
       map_cost ();
       (match Page_table.frame_of t.page_table page with
        | Some frame ->
          Tlb.insert tlb ~key:page ~value:frame;
          Some frame
        | None -> None))

let access t name ~write =
  let page = name / t.cfg.page_size and offset = name mod t.cfg.page_size in
  if page < 0 || page >= t.cfg.pages then
    raise
      (Memstore.Physical.Bound_violation
         { store = "name-space"; address = name; extent = t.cfg.pages * t.cfg.page_size });
  t.refs <- t.refs + 1;
  timed t Metrics.Space_time.Active (fun () ->
      Sim.Clock.advance (clock t) t.cfg.compute_us_per_ref);
  t.cfg.policy.Replacement.on_reference ~page ~write;
  let frame =
    match translate t page with
    | Some frame ->
      await t page;
      Ok frame
    | None ->
      (match timed t Metrics.Space_time.Waiting (fun () -> fault t page) with
       | Error _ as e -> e
       | Ok () ->
         await t page;
         (match Page_table.frame_of t.page_table page with
          | Some frame ->
            (match t.cfg.tlb with
             | Some tlb -> Tlb.insert tlb ~key:page ~value:frame
             | None -> ());
            Ok frame
          | None -> assert false))
  in
  match frame with
  | Error _ as e -> e
  | Ok frame ->
    if write then Page_table.mark_modified t.page_table ~page;
    Ok ((frame * t.cfg.page_size) + offset)

(* Under the default [Mirror] recovery every fetch succeeds, so the
   raising wrappers below can never actually raise; they exist for the
   engines and experiments that predate typed failures. *)
let touch t name ~write =
  match access t name ~write with
  | Ok addr -> addr
  (* lint: allow L4 — legacy wrapper; unreachable under the default Mirror recovery, documented to raise otherwise *)
  | Error f -> failwith (Resilience.Failure.to_string f)

let read_result t name =
  match access t name ~write:false with
  | Error _ as e -> e
  | Ok core_addr ->
    Ok
      (timed t Metrics.Space_time.Active (fun () ->
           Memstore.Level.read t.cfg.core core_addr))

let read t name =
  let core_addr = touch t name ~write:false in
  timed t Metrics.Space_time.Active (fun () -> Memstore.Level.read t.cfg.core core_addr)

let write_result t name v =
  match access t name ~write:true with
  | Error _ as e -> e
  | Ok core_addr ->
    Ok
      (timed t Metrics.Space_time.Active (fun () ->
           Memstore.Level.write t.cfg.core core_addr v))

let write t name v =
  let core_addr = touch t name ~write:true in
  timed t Metrics.Space_time.Active (fun () -> Memstore.Level.write t.cfg.core core_addr v)

let run t trace =
  Array.iter
    (fun name ->
      let (_ : int64) = read t name in
      ())
    trace

let frame_of t ~page = Page_table.frame_of t.page_table page

let advise_will_need t ~page =
  if page >= 0 && page < t.cfg.pages && frame_of t ~page = None then begin
    match Resident.lowest t.free with
    | None -> ()  (* advisory: no free frame, no prefetch *)
    | Some frame ->
      (match start_fetch t ~kind:Device.Request.Prefetch ~page ~frame with
       | Ok () -> t.prefetches <- t.prefetches + 1
       | Error _ -> ()  (* advisory: a failed prefetch is no prefetch *))
  end

let advise_wont_need t ~page =
  if page >= 0 && page < t.cfg.pages then begin
    match frame_of t ~page with
    | Some _ when not (Page_table.locked t.page_table ~page) ->
      evict_page t page;
      t.advice_releases <- t.advice_releases + 1
    | Some _ | None -> ()
  end

let lock t ~page =
  (match frame_of t ~page with
   | None ->
     let frame = free_a_frame t in
     (match start_fetch t ~kind:Device.Request.Prefetch ~page ~frame with
      | Ok () -> ()
      (* lint: allow L4 — unreachable under the default Mirror recovery, documented to raise otherwise *)
      | Error f -> failwith (Resilience.Failure.to_string f));
     await t page
   | Some _ -> ());
  Page_table.lock t.page_table ~page;
  if Array.length (candidates t) = 0 && Resident.length t.free = 0 then begin
    Page_table.unlock t.page_table ~page;
    invalid_arg "Demand.lock: would leave no evictable frame"
  end

let unlock t ~page = Page_table.unlock t.page_table ~page

let refs t = t.refs

let faults t = t.faults

let writebacks t = t.writebacks

let prefetches t = t.prefetches

let advice_releases t = t.advice_releases

let mirror_fetches t = t.mirror_fetches

let hard_failures t = t.hard_failures

let space_time t = t.space_time

let timeline t = t.timeline

let tlb t = t.cfg.tlb

let page_size t = t.cfg.page_size

let backing t = t.cfg.backing

let device t = t.device
