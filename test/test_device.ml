(* Tests for the timed backing-store subsystem (lib/device): geometry
   timing, scheduling policies, channel overlap, fault injection, and
   the equivalence of the Fixed geometry with the legacy flat-latency
   arithmetic in Paging.Demand. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* 16 sectors, 16 ms revolution, word_ns = 0: one sector per ms. *)
let drum = Device.Geometry.atlas_drum

(* --- Geometry --- *)

let test_fixed_service () =
  let g = Device.Geometry.fixed_us 5_000 in
  let start, fin, head' = Device.Geometry.service g ~at:7 ~head:3 ~page:9 ~words:256 in
  check_int "starts immediately" 7 start;
  check_int "flat cost" 5_007 fin;
  check_int "head untouched" 3 head'

let test_drum_rotation () =
  (* Page 3 lives in sector 3; from t = 0 it arrives under the heads at
     3 ms and takes one sector time to transfer. *)
  let start, fin, _ = Device.Geometry.service drum ~at:0 ~head:0 ~page:3 ~words:0 in
  check_int "waits for its sector" 3_000 start;
  check_int "one sector to transfer" 4_000 fin;
  (* Just missed it: a full revolution until the next pass. *)
  let start, _, _ = Device.Geometry.service drum ~at:3_500 ~head:0 ~page:3 ~words:0 in
  check_int "full revolution on a miss" 19_000 start;
  (* Sector addressing wraps with the page number. *)
  check_int "sector wraps" 3 (Device.Geometry.sector_of drum ~page:19)

let test_disk_seek_moves_head () =
  let disk = Device.Geometry.paper_disk in
  let page = 3 * 8 in
  (* cylinder 3, sector 0 *)
  let start_far, _, head' = Device.Geometry.service disk ~at:0 ~head:0 ~page ~words:0 in
  check_int "head follows the seek" 3 head';
  let start_near, _, _ = Device.Geometry.service disk ~at:0 ~head:3 ~page ~words:0 in
  check_bool "seek delays the start" true (start_near < start_far)

let test_worst_us_bounds_service () =
  let worst = Device.Geometry.worst_us drum ~words:256 in
  for page = 0 to 31 do
    for k = 0 to 5 do
      let at = k * 1_234 in
      let _, fin, _ = Device.Geometry.service drum ~at ~head:0 ~page ~words:256 in
      check_bool "worst_us bounds any single service" true (fin - at <= worst)
    done
  done

(* --- Scheduling --- *)

(* Every delivery [take_completion] makes until the device is idle:
   (id, finish_us), in finish order. *)
let drain m =
  let got = ref [] in
  while
    Device.Model.take_completion m (fun ~id ~page:_ ~finish_us _ ->
        got := (id, finish_us) :: !got)
  do
    ()
  done;
  List.rev !got

(* Eight requests to scattered sectors, all queued at t = 0, then
   drained: the mean latency under each policy. *)
let batch_latency ~sched =
  let m = Device.Model.create (Device.Model.config ~sched drum) in
  for k = 0 to 7 do
    ignore
      (Device.Model.submit m ~now:0 ~kind:Device.Request.Demand ~page:(k * 5 mod 16)
         ~words:0)
  done;
  ignore (drain m);
  (Device.Model.stats m).Device.Model.mean_read_latency_us

let test_satf_beats_fifo () =
  (* FIFO chases sectors in submission order and loses revolutions;
     SATF sweeps them in rotational order. *)
  check_bool "satf strictly faster at depth > 1" true
    (batch_latency ~sched:Device.Sched.Satf < batch_latency ~sched:Device.Sched.Fifo)

let test_priority_serves_demand_first () =
  let m = Device.Model.create (Device.Model.config ~sched:Device.Sched.Priority drum) in
  let wb =
    List.init 4 (fun k ->
        Device.Model.submit m ~now:0 ~kind:Device.Request.Writeback ~page:(k * 4) ~words:0)
  in
  let d = Device.Model.submit m ~now:0 ~kind:Device.Request.Demand ~page:9 ~words:0 in
  let fins = drain m in
  let d_fin = List.assoc d fins in
  List.iter
    (fun id ->
      check_bool "demand jumps the writeback queue" true (d_fin < List.assoc id fins))
    wb

let test_channels_overlap () =
  let span channels =
    let m =
      Device.Model.create (Device.Model.config ~channels (Device.Geometry.fixed_us 1_000))
    in
    for k = 0 to 5 do
      ignore (Device.Model.submit m ~now:0 ~kind:Device.Request.Demand ~page:k ~words:0)
    done;
    List.fold_left (fun acc (_, fin) -> max acc fin) 0 (drain m)
  in
  check_int "one channel serialises" 6_000 (span 1);
  check_int "two channels halve the span" 3_000 (span 2)

let test_event_loop_delivery () =
  let m = Device.Model.create (Device.Model.config (Device.Geometry.fixed_us 1_000)) in
  let a = Device.Model.submit m ~now:0 ~kind:Device.Request.Demand ~page:0 ~words:0 in
  let b = Device.Model.submit m ~now:0 ~kind:Device.Request.Demand ~page:1 ~words:0 in
  check_int "both pending" 2 (Device.Model.pending m);
  let got = ref [] in
  let note ~id ~page ~finish_us failure = got := (id, page, finish_us, failure) :: !got in
  Device.Model.deliver_due m ~now:500 note;
  check_int "nothing due yet" 0 (List.length !got);
  Device.Model.deliver_due m ~now:2_000 note;
  check_bool "delivered in finish order, with pages" true
    (List.rev !got = [ (a, 0, 1_000, None); (b, 1, 2_000, None) ]);
  check_bool "then idle" false (Device.Model.take_completion m note)

let test_double_completion_rejected () =
  let m = Device.Model.create (Device.Model.config drum) in
  let id = Device.Model.submit m ~now:0 ~kind:Device.Request.Demand ~page:1 ~words:0 in
  check_bool "one delivery" true (drain m = [ (id, 2_000) ]);
  let again = ref 0 in
  Device.Model.deliver_due m ~now:max_int (fun ~id:_ ~page:_ ~finish_us:_ _ -> incr again);
  check_int "a delivered completion is not delivered again" 0 !again

(* --- Equivalence with the legacy flat path --- *)

let page_size = 64
let frames = 4
let pages = 12

let demand_engine ?device ?(clock = Sim.Clock.create ()) () =
  Paging.Spec.build ?device ~clock ~rng:(Sim.Rng.create 0)
    { Paging.Spec.e_page_size = page_size; e_frames = frames; e_pages = pages;
      e_device = Memstore.Device.drum; e_policy = Paging.Spec.Lru; e_tlb_slots = None;
      e_compute_us_per_ref = 5 }

let mixed_trace ~refs =
  let rng = Sim.Rng.create 7 in
  Array.init refs (fun _ -> Sim.Rng.int rng (pages * page_size))

(* One write in four: modified evictions exercise the writeback path. *)
let run_trace engine trace =
  Array.iteri
    (fun i a ->
      if i land 3 = 0 then Paging.Demand.write engine a (Int64.of_int (a + 1))
      else ignore (Paging.Demand.read engine a))
    trace

let test_fixed_fifo_matches_legacy () =
  let trace = mixed_trace ~refs:600 in
  let legacy_clock = Sim.Clock.create () and timed_clock = Sim.Clock.create () in
  let legacy = demand_engine ~clock:legacy_clock () in
  run_trace legacy trace;
  let timed =
    demand_engine
      ~device:
        (Device.Model.create
           (Device.Model.config (Device.Geometry.fixed Memstore.Device.drum)))
      ~clock:timed_clock ()
  in
  run_trace timed trace;
  check_int "same fault count" (Paging.Demand.faults legacy) (Paging.Demand.faults timed);
  check_int "same simulated clock" (Sim.Clock.now legacy_clock) (Sim.Clock.now timed_clock)

(* --- Fault injection --- *)

let test_faults_are_timing_only () =
  let trace = mixed_trace ~refs:400 in
  let run fault =
    let model = Device.Model.create (Device.Model.config ?fault drum) in
    let engine = demand_engine ~device:model () in
    run_trace engine trace;
    let sum =
      Array.fold_left (fun acc a -> Int64.add acc (Paging.Demand.read engine a)) 0L trace
    in
    (model, Paging.Demand.faults engine, sum)
  in
  let _, faults0, sum0 = run None in
  let model, faults1, sum1 = run (Some (Device.Fault.config ~read_error_prob:0.3 ())) in
  let st = Device.Model.stats model in
  check_bool "errors were injected" true (st.Device.Model.injected > 0);
  check_bool "and retried" true (st.Device.Model.retries > 0);
  check_int "fault count unchanged" faults0 faults1;
  Alcotest.(check int64) "memory contents unchanged" sum0 sum1

let test_degraded_fallback_is_bounded () =
  let fault = Device.Fault.config ~read_error_prob:1.0 ~max_retries:2 () in
  let m = Device.Model.create (Device.Model.config ~fault drum) in
  let fin =
    match Device.Model.fetch_result m ~now:0 ~kind:Device.Request.Demand ~page:5 ~words:0 with
    | Ok fin -> fin
    | Error _ -> Alcotest.fail "Degrade escalation never fails"
  in
  let st = Device.Model.stats m in
  check_int "every attempt failed" 3 st.Device.Model.injected;
  check_int "retries stop at the budget" 2 st.Device.Model.retries;
  check_int "then degraded mode" 1 st.Device.Model.degraded;
  check_bool "which still completes" true (fin > 0)

let test_writes_never_fault () =
  let fault = Device.Fault.config ~read_error_prob:1.0 ~max_retries:0 () in
  let m = Device.Model.create (Device.Model.config ~fault drum) in
  ignore (Device.Model.fetch_result m ~now:0 ~kind:Device.Request.Writeback ~page:3 ~words:0);
  check_int "write path injects nothing" 0 (Device.Model.stats m).Device.Model.injected

let test_retries_surface_as_events () =
  let retries = ref 0 in
  let sink =
    Obs.Sink.collect (fun e ->
        match e.Obs.Event.kind with Obs.Event.Io_retry _ -> incr retries | _ -> ())
  in
  let fault = Device.Fault.config ~read_error_prob:1.0 ~max_retries:1 () in
  let m = Device.Model.create ~obs:sink (Device.Model.config ~fault drum) in
  ignore (Device.Model.fetch_result m ~now:0 ~kind:Device.Request.Demand ~page:2 ~words:0);
  check_int "one Io_retry per failed attempt" 2 !retries

(* --- Memory: an answered request leaves nothing behind --- *)

(* The words a model holds after [calls] requests, each answered as its
   engine asks: by [fetch_result] ([`Fetch]); by [fetch_result] after a
   submitted writeback that nobody waits for ([`Fetch_after_writeback]);
   or by [take_completion] under a fault config whose exhausted retries
   fail the request, the delivered failure left unread ([`Event_loop]). *)
let words_after ~calls answer =
  let fault =
    match answer with
    | `Event_loop ->
      Some
        (Device.Fault.config ~seed:5 ~read_error_prob:0.5 ~max_retries:1
           ~on_exhausted:Device.Fault.Fail ())
    | `Fetch | `Fetch_after_writeback -> None
  in
  let m = Device.Model.create (Device.Model.config ?fault drum) in
  for k = 1 to calls do
    let now = k * 1_000 and page = k * 7 mod 32 in
    match answer with
    | `Fetch -> ignore (Device.Model.fetch_result m ~now ~kind:Demand ~page ~words:0)
    | `Fetch_after_writeback ->
      ignore (Device.Model.submit m ~now ~kind:Writeback ~page:(k mod 32) ~words:0);
      ignore (Device.Model.fetch_result m ~now ~kind:Demand ~page ~words:0)
    | `Event_loop ->
      ignore (Device.Model.submit m ~now ~kind:Demand ~page ~words:0);
      ignore (Device.Model.take_completion m (fun ~id:_ ~page:_ ~finish_us:_ _ -> ()))
  done;
  let st = Device.Model.stats m in
  if answer = `Event_loop && calls >= 100 then
    check_bool "some requests failed" true (st.Device.Model.failed > 0);
  check_int "every request answered" 0 st.Device.Model.pending;
  Obj.reachable_words (Obj.repr m)

let test_answers_leave_nothing () =
  List.iter
    (fun (name, answer) ->
      check_int name (words_after ~calls:100 answer) (words_after ~calls:100_000 answer))
    [
      ("fetch_result", `Fetch);
      ("fetch_result after a writeback", `Fetch_after_writeback);
      ("take_completion, failures unread", `Event_loop);
    ]

(* --- Analytic oracle: one FIFO channel of fixed service is M/D/1 --- *)

(* Poisson arrivals at rate lambda to one FIFO channel that serves each
   request in exactly [d] us form an M/D/1 queue, whose mean time in
   system is Pollaczek-Khinchine's d + rho d / (2 (1 - rho)), rho =
   lambda d.

   Tolerance, fixed before the first run.  The sample mean of n
   correlated sojourn times has standard deviation sqrt (s2 / n), s2
   being the asymptotic variance constant of the waiting-time average.
   For M/M/1 with unit mean service, Daley (1968) gives s2 =
   rho (2 + 5 rho - 4 rho^2 + rho^3) / (1 - rho)^4; deterministic
   service waits less and less variably, so this bounds the M/D/1
   constant (in units of d^2).  The test allows four such standard
   deviations, plus 2 us for arrivals truncated to whole microseconds
   (each arrival moves by less than 1 us; truncation does not
   accumulate) and the empty start (its bias is O(1/n)).  With n =
   200,000 and d = 10 ms: 4 sd is 0.025 d (1.5% of the answer) at
   rho = 0.3 and 0.084 d (4.8%) at rho = 0.6.

   Arrivals are submitted 1,000 at a time and each batch is drained by
   [take_completion], which keeps the queue small: one FIFO channel
   serves in arrival order however the arrivals are batched. *)
let test_fifo_is_md1 () =
  let d = 10_000 and n = 200_000 in
  List.iter
    (fun (rho, seed) ->
      let m = Device.Model.create (Device.Model.config (Device.Geometry.fixed_us d)) in
      let rng = Sim.Rng.create seed and clock = ref 0. in
      for k = 1 to n do
        clock := !clock +. Sim.Rng.exponential rng (float_of_int d /. rho);
        ignore (Device.Model.submit m ~now:(int_of_float !clock) ~kind:Demand ~page:0 ~words:0);
        if k mod 1_000 = 0 then ignore (drain m)
      done;
      let d = float_of_int d in
      let pk = d +. (rho *. d /. (2. *. (1. -. rho))) in
      let s2 = rho *. (2. +. (5. *. rho) -. (4. *. rho *. rho) +. (rho ** 3.)) /. ((1. -. rho) ** 4.) in
      let tolerance = (4. *. d *. sqrt (s2 /. float_of_int n)) +. 2. in
      let mean = (Device.Model.stats m).Device.Model.mean_read_latency_us in
      if Float.abs (mean -. pk) > tolerance then
        Alcotest.failf "rho %.1f: mean time in system %.1f us, Pollaczek-Khinchine %.1f +- %.1f"
          rho mean pk tolerance)
    [ (0.3, 301); (0.6, 601) ]

(* --- Reference: the list queue the array queue replaced --- *)

(* The device model as it stood with its queue in a list, kept as an
   oracle for the array queue and its cached plan: each submit appends
   to the list, and each plan folds and filters the whole queue and
   picks through the list scheduler below, which compares SATF
   candidates through [Geometry.service].  Only the three record types
   are shared with [Device.Model], so that answers compare with [=], and
   [config] is [Device.Model.config].  It keeps the API it had then, of
   which the property below drives only [submit], [fetch_result] and the
   deliveries with [failure_of]; [fetch] goes unused. *)
module Reference = struct
  open Device

  module Geometry = struct
    include Device.Geometry

    let start_us t ~at ~head ~page ~words =
      let start, _, _ = service t ~at ~head ~page ~words in
      start
  end

  module Sched = struct
    include Device.Sched

    (* Stable tie-break: submission order.  ids are issued monotonically, so
       (arrival_us, id) is a total order matching FIFO. *)
    let older (a : Request.t) (b : Request.t) =
      a.arrival_us < b.arrival_us || (a.arrival_us = b.arrival_us && a.id < b.id)

    let pick t ~geometry ~at ~head candidates =
      match candidates with
      | [] -> None
      | first :: rest ->
        let better a b =
          match t with
          | Fifo -> older a b
          | Satf ->
            let sa = Geometry.start_us geometry ~at ~head ~page:a.Request.page ~words:a.words in
            let sb = Geometry.start_us geometry ~at ~head ~page:b.Request.page ~words:b.words in
            sa < sb || (sa = sb && older a b)
          | Priority ->
            let ra = Request.rank a.Request.kind and rb = Request.rank b.Request.kind in
            ra < rb || (ra = rb && older a b)
        in
        Some (List.fold_left (fun best r -> if better r best then r else best) first rest)
  end

  type config = Device.Model.config = {
    geometry : Geometry.t;
    sched : Sched.t;
    channels : int;
    fault : Fault.config option;
  }

  type channel = { mutable free_at : int; mutable head : int }

  type failure = Device.Model.failure = {
    req : int;
    page : int;
    kind : Request.kind;
    attempts : int;
    at_us : int;
  }

  type t = {
    cfg : config;
    obs : Obs.Sink.t;
    obs_on : bool;
    fault : Fault.t option;
    chans : channel array;
    mutable queue : Request.t list;  (* submitted, not yet dispatched; arrival order *)
    completions : int Sim.Heap.t;  (* finish_us -> req id, undelivered *)
    finish_of : (int, int) Hashtbl.t;  (* req id -> finish_us, undelivered *)
    failures : (int, failure) Hashtbl.t;  (* req id -> terminal failure, unconsumed *)
    mutable next_id : int;
    mutable last_arrival_us : int;
    mutable served : int;
    mutable read_served : int;
    mutable read_latency_sum : int;
    mutable busy_us : int;
    mutable depth_sum : int;
    mutable depth_samples : int;
    mutable max_depth : int;
  }

  type stats = Device.Model.stats = {
    served : int;
    read_served : int;
    mean_read_latency_us : float;
    mean_queue_depth : float;
    max_queue_depth : int;
    busy_us : int;
    injected : int;
    write_injected : int;
    permanent : int;
    retries : int;
    degraded : int;
    failed : int;
    write_rolls_skipped : int;
    pending : int;
  }

  let create ?(obs = Obs.Sink.null) cfg =
    {
      cfg;
      obs;
      obs_on = Obs.Sink.is_active obs;
      fault = Option.map Fault.create cfg.fault;
      chans = Array.init cfg.channels (fun _ -> { free_at = 0; head = 0 });
      queue = [];
      completions = Sim.Heap.create ();
      finish_of = Hashtbl.create 64;
      failures = Hashtbl.create 8;
      next_id = 0;
      last_arrival_us = 0;
      served = 0;
      read_served = 0;
      read_latency_sum = 0;
      busy_us = 0;
      depth_sum = 0;
      depth_samples = 0;
      max_depth = 0;
    }

  let label t =
    Printf.sprintf "%s/%s/%dch" (Geometry.label t.cfg.geometry) (Sched.name t.cfg.sched)
      t.cfg.channels

  let emit t ~t_us kind = Obs.Sink.emit t.obs (Obs.Event.make ~t_us kind)

  let note_depth t =
    let depth = List.length t.queue in
    t.depth_sum <- t.depth_sum + depth;
    t.depth_samples <- t.depth_samples + 1;
    if depth > t.max_depth then t.max_depth <- depth

  let submit ?(immune = false) t ~now ~kind ~page ~words =
    (* Arrival times are monotone in submission order: engine clocks
       are, and a late-stamped submission is clamped to the latest
       arrival, so it queues behind everything already submitted. *)
    let now = max now t.last_arrival_us in
    t.last_arrival_us <- now;
    let id = t.next_id in
    t.next_id <- id + 1;
    let r = Request.make ~immune ~id ~kind ~page ~words ~arrival_us:now () in
    t.queue <- t.queue @ [ r ];
    note_depth t;
    id

  let remove_from_queue t (r : Request.t) =
    t.queue <- List.filter (fun (q : Request.t) -> q.id <> r.id) t.queue

  let record_completion t (r : Request.t) ~fin =
    Sim.Heap.add t.completions fin r.id;
    Hashtbl.replace t.finish_of r.id fin;
    t.served <- t.served + 1;
    if Request.is_read r.kind then begin
      t.read_served <- t.read_served + 1;
      t.read_latency_sum <- t.read_latency_sum + (fin - r.arrival_us)
    end;
    if t.obs_on then emit t ~t_us:fin (Io_done { req = r.id; page = r.page; io = r.kind })

  (* A terminal failure still completes in time (the channel was busy
     until [fin]); it is delivered like a completion, but the caller can
     see via [failure_of] / [result_us] that the data never arrived. *)
  let record_failure t (r : Request.t) ~fin ~attempts =
    Sim.Heap.add t.completions fin r.id;
    Hashtbl.replace t.finish_of r.id fin;
    Hashtbl.replace t.failures r.id
      { req = r.id; page = r.page; kind = r.kind; attempts; at_us = fin };
    (match t.fault with Some f -> Fault.note_failed f | None -> ());
    if t.obs_on then
      emit t ~t_us:fin (Io_error { req = r.id; page = r.page; io = r.kind; attempts })

  (* One full service of [r] on [chan] starting no earlier than [td]:
     positioning + transfer, plus fault retries and the escalation pass
     when the retry budget is exhausted (degraded-mode success, or a
     terminal failure under [Fault.Fail]).  Returns the finish time and
     the outcome. *)
  let serve t chan (r : Request.t) ~td =
    let g = t.cfg.geometry in
    let escalate f ~fin ~attempt =
      match Fault.on_exhausted f with
      | Fault.Degrade ->
        Fault.note_degraded f;
        (fin + Geometry.worst_us g ~words:r.words, `Ok)
      | Fault.Fail -> (fin, `Failed attempt)
    in
    let rec go at attempt =
      let start, fin, head' = Geometry.service g ~at ~head:chan.head ~page:r.page ~words:r.words in
      if attempt = 1 && t.obs_on then
        emit t ~t_us:start (Io_start { req = r.id; page = r.page; io = r.kind });
      chan.head <- head';
      match t.fault with
      | None -> (fin, `Ok)
      | Some f ->
        (match Fault.attempt f ~immune:r.immune ~kind:r.kind with
         | Fault.Clean -> (fin, `Ok)
         | Fault.Transient ->
           if t.obs_on then emit t ~t_us:fin (Io_retry { req = r.id; attempt });
           if attempt <= Fault.max_retries f then begin
             Fault.note_retry f;
             go fin (attempt + 1)
           end
           else escalate f ~fin ~attempt
         | Fault.Permanent ->
           (* beyond retry: no point burning the budget *)
           if t.obs_on then emit t ~t_us:fin (Io_retry { req = r.id; attempt });
           escalate f ~fin ~attempt)
    in
    go td 1

  let dispatch t chan (r : Request.t) =
    Obs.Prof.span "device.dispatch" @@ fun () ->
    remove_from_queue t r;
    let td = max chan.free_at r.arrival_us in
    let fin, outcome = serve t chan r ~td in
    t.busy_us <- t.busy_us + (fin - td);
    (match outcome with
     | `Ok -> record_completion t r ~fin
     | `Failed attempts -> record_failure t r ~fin ~attempts);
    chan.free_at <- fin

  (* The channel that frees first; ties go to the lowest index. *)
  let best_channel t =
    let best = ref t.chans.(0) in
    Array.iter (fun c -> if c.free_at < !best.free_at then best := c) t.chans;
    !best

  (* What would be dispatched next, and when.  Only requests that have
     arrived by the dispatch instant compete — SATF must not see the
     future. *)
  let next_plan t =
    match t.queue with
    | [] -> None
    | q ->
      let chan = best_channel t in
      let min_arrival =
        List.fold_left (fun m (r : Request.t) -> min m r.arrival_us) max_int q
      in
      let td = max chan.free_at min_arrival in
      let candidates = List.filter (fun (r : Request.t) -> r.arrival_us <= td) q in
      let r =
        match Sched.pick t.cfg.sched ~geometry:t.cfg.geometry ~at:td ~head:chan.head candidates with
        | Some r -> r
        | None -> assert false (* candidates holds the earliest arrival by construction of td *)
      in
      Some (chan, r, td)

  let pop_completion t =
    match Sim.Heap.pop t.completions with
    | None -> None
    | Some (fin, id) ->
      Hashtbl.remove t.finish_of id;
      Some (id, fin)

  (* ---- synchronous consumption (single-threaded engines) ---- *)

  let completion_us t id =
    match Hashtbl.find_opt t.finish_of id with
    | Some fin ->
      Hashtbl.remove t.finish_of id;
      fin
    | None ->
      let rec force () =
        match next_plan t with
        | None ->
          invalid_arg (Printf.sprintf "Device.Model.completion_us: unknown request %d" id)
        | Some (chan, r, _) ->
          dispatch t chan r;
          (match Hashtbl.find_opt t.finish_of id with
           | Some fin ->
             Hashtbl.remove t.finish_of id;
             fin
           | None -> force ())
      in
      force ()

  let failure_of t id =
    match Hashtbl.find_opt t.failures id with
    | Some f ->
      Hashtbl.remove t.failures id;
      Some f
    | None -> None

  let result_us t id =
    let fin = completion_us t id in
    match failure_of t id with Some f -> Error f | None -> Ok fin

  let fetch t ~now ~kind ~page ~words =
    let id = submit t ~now ~kind ~page ~words in
    completion_us t id

  let fetch_result ?immune t ~now ~kind ~page ~words =
    let id = submit ?immune t ~now ~kind ~page ~words in
    result_us t id

  (* ---- event-loop consumption (Core.Multiprog) ---- *)

  let deliver_due t ~now f =
    let progress = ref true in
    while !progress do
      progress := false;
      (match Sim.Heap.min t.completions with
       | Some (fin, _) when fin <= now ->
         (match pop_completion t with
          | Some (id, fin) ->
            f id fin;
            progress := true
          | None -> ())
       | _ -> ());
      (match next_plan t with
       | Some (chan, r, td) when td <= now -> (
         (* causality gate: a completion due before the dispatch instant
            must reach the engine first — it may wake a job whose next
            request would compete for this very dispatch. *)
         match Sim.Heap.min t.completions with
         | Some (fin, _) when fin <= td -> ()
         | _ ->
           dispatch t chan r;
           progress := true)
       | _ -> ())
    done

  let rec take_completion t =
    match (Sim.Heap.min t.completions, next_plan t) with
    | None, None -> None
    | Some _, None -> pop_completion t
    | None, Some (chan, r, _) ->
      dispatch t chan r;
      take_completion t
    | Some (fin, _), Some (chan, r, td) ->
      if td < fin then begin
        dispatch t chan r;
        take_completion t
      end
      else pop_completion t

  (* ---- reporting ---- *)

  let pending t = List.length t.queue

  let stats (t : t) : stats =
    {
      served = t.served;
      read_served = t.read_served;
      mean_read_latency_us =
        (if t.read_served = 0 then 0.
         else float_of_int t.read_latency_sum /. float_of_int t.read_served);
      mean_queue_depth =
        (if t.depth_samples = 0 then 0.
         else float_of_int t.depth_sum /. float_of_int t.depth_samples);
      max_queue_depth = t.max_depth;
      busy_us = t.busy_us;
      injected = (match t.fault with None -> 0 | Some f -> Fault.injected f);
      write_injected = (match t.fault with None -> 0 | Some f -> Fault.write_injected f);
      permanent = (match t.fault with None -> 0 | Some f -> Fault.permanent_count f);
      retries = (match t.fault with None -> 0 | Some f -> Fault.retried f);
      degraded = (match t.fault with None -> 0 | Some f -> Fault.degraded f);
      failed = (match t.fault with None -> 0 | Some f -> Fault.failed f);
      write_rolls_skipped =
        (match t.fault with None -> 0 | Some f -> Fault.write_rolls_skipped f);
      pending = List.length t.queue;
    }
end [@@warning "-32"]

(* One random script drives the array queue and the reference list
   queue in lockstep.  Submits move the engine clock by -3 to +6 ms, so
   arrivals also exercise the clamp.  A script answers its requests one
   way.  Synchronously, [Consume] and [Advance] are [fetch_result]s (the
   reference's [submit] then [result_us]), and submitted requests are
   served only on their way; in the event loop, [Consume] is
   [take_completion] and [Advance] moves the clock and calls
   [deliver_due], and each delivery must carry the page submitted with
   its id and the failure the reference's [failure_of] gives.  An event
   loop is drained at the end.  Every answer must agree as it is given;
   then the io events, serialised, and the stats must be equal. *)
type op =
  | Submit of { dt : int; kind : Device.Request.kind; page : int; words : int; immune : bool }
  | Consume of int
  | Advance of int

type script = {
  sched : Device.Sched.t;
  channels : int;
  geometry : int;  (** index into [geometries] *)
  fault : Device.Fault.config option;
  event_loop : bool;
  ops : op list;
}

let geometries =
  [|
    ("fixed", Device.Geometry.fixed Memstore.Device.drum);
    ("drum", drum);
    ("disk", Device.Geometry.paper_disk);
  |]

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map
            (fun (dt, kind, page, (words, immune)) -> Submit { dt; kind; page; words; immune })
            (quad (int_range (-3_000) 6_000)
               (oneofl Device.Request.[ Demand; Prefetch; Writeback ])
               (int_bound 199)
               (pair (int_bound 64) bool)) );
        (3, map (fun x -> Consume x) (int_bound 1_000));
        (2, map (fun dt -> Advance dt) (int_bound 20_000));
      ])

let fault_gen =
  QCheck.Gen.(
    map
      (fun (seed, read_error_prob, (write_error_prob, permanent_prob), (max_retries, fail)) ->
        Device.Fault.config ~seed ~read_error_prob ~write_error_prob ~permanent_prob
          ~max_retries
          ~on_exhausted:(if fail then Device.Fault.Fail else Device.Fault.Degrade)
          ())
      (quad (int_bound 1_000_000) (oneofl [ 0.1; 0.3; 0.6 ])
         (pair (oneofl [ 0.; 0.2 ]) (oneofl [ 0.; 0.3 ]))
         (pair (int_bound 3) bool)))

let script_gen =
  QCheck.Gen.(
    map
      (fun ((sched, channels, geometry), (fault, event_loop, ops)) ->
        { sched; channels; geometry; fault; event_loop; ops })
      (pair
         (triple (oneofl Device.Sched.all) (int_range 1 3) (int_bound 2))
         (triple (opt fault_gen) bool (list_size (int_range 0 80) op_gen))))

let show_script s =
  let op = function
    | Submit { dt; kind; page; words; immune } ->
      Printf.sprintf "submit %+d %s p%d w%d%s" dt (Obs.Event.io_name kind) page words
        (if immune then " immune" else "")
    | Consume x -> Printf.sprintf "consume %d" x
    | Advance dt -> Printf.sprintf "advance %d" dt
  in
  Printf.sprintf "%s/%s/%dch%s %s:\n  %s" (fst geometries.(s.geometry))
    (Device.Sched.name s.sched) s.channels
    (match s.fault with
     | None -> ""
     | Some f ->
       Printf.sprintf " fault(seed %d, read %g, write %g, permanent %g, retries %d, %s)"
         f.seed f.read_error_prob f.write_error_prob f.permanent_prob f.max_retries
         (match f.on_exhausted with Device.Fault.Fail -> "fail" | Degrade -> "degrade"))
    (if s.event_loop then "event loop" else "synchronous")
    (String.concat "\n  " (List.map op s.ops))

let script_arb =
  QCheck.make ~print:show_script
    ~shrink:(fun s yield -> QCheck.Shrink.list s.ops (fun ops -> yield { s with ops }))
    script_gen

let model_matches_reference =
  QCheck.Test.make ~name:"array queue matches the list queue" ~count:1000 script_arb
    (fun s ->
      let cfg =
        Device.Model.config ~sched:s.sched ~channels:s.channels ?fault:s.fault
          (snd geometries.(s.geometry))
      in
      let sink () =
        let b = Buffer.create 1024 in
        (b, Obs.Sink.collect (fun e -> Obs.Event.to_buffer b e; Buffer.add_char b '\n'))
      in
      let m_events, m_obs = sink () and r_events, r_obs = sink () in
      let m = Device.Model.create ~obs:m_obs cfg and r = Reference.create ~obs:r_obs cfg in
      if Device.Model.label m <> Reference.label r then QCheck.Test.fail_report "labels differ";
      let now = ref 0 and page_of = Hashtbl.create 64 in
      let agree step what show a b =
        if a <> b then
          QCheck.Test.fail_reportf "step %d, %s: %s, reference %s" step what (show a) (show b)
      in
      let show_failure = function
        | None -> "none"
        | Some (f : Device.Model.failure) ->
          Printf.sprintf "failed req %d at %d after %d" f.req f.at_us f.attempts
      in
      let show_result = function Ok fin -> string_of_int fin | Error f -> show_failure (Some f) in
      let show_delivered l =
        String.concat "; "
          (List.map
             (fun (id, page, fin, f) ->
               Printf.sprintf "(%d, p%d, %d, %s)" id page fin (show_failure f))
             l)
      in
      (* The model's deliveries, and the reference's as [Core.Multiprog]
         used to read them: an id and a finish, then [failure_of]. *)
      let note got ~id ~page ~finish_us failure = got := (id, page, finish_us, failure) :: !got in
      let reference_note want id fin =
        want := (id, Hashtbl.find page_of id, fin, Reference.failure_of r id) :: !want
      in
      let fetch_result step ~now ~kind ~page ~words ~immune =
        agree step "fetch_result" show_result
          (Device.Model.fetch_result ~immune m ~now ~kind ~page ~words)
          (Reference.fetch_result ~immune r ~now ~kind ~page ~words)
      in
      let take step =
        let got = ref [] and want = ref [] in
        let more = Device.Model.take_completion m (note got) in
        Option.iter (fun (id, fin) -> reference_note want id fin) (Reference.take_completion r);
        agree step "take_completion" show_delivered !got !want;
        more
      in
      List.iteri
        (fun step op ->
          (match op with
           | Submit { dt; kind; page; words; immune } ->
             now := max 0 (!now + dt);
             let id = Device.Model.submit ~immune m ~now:!now ~kind ~page ~words in
             agree step "submit" string_of_int id
               (Reference.submit ~immune r ~now:!now ~kind ~page ~words);
             Hashtbl.replace page_of id page
           | Consume _ when s.event_loop -> ignore (take step : bool)
           | Consume x ->
             fetch_result step ~now:!now
               ~kind:Device.Request.(match x mod 3 with 0 -> Demand | 1 -> Prefetch | _ -> Writeback)
               ~page:(x mod 200) ~words:(x mod 65) ~immune:(x land 4 = 0)
           | Advance dt when s.event_loop ->
             now := !now + dt;
             let got = ref [] and want = ref [] in
             Device.Model.deliver_due m ~now:!now (note got);
             Reference.deliver_due r ~now:!now (reference_note want);
             agree step "deliver_due" show_delivered !got !want
           | Advance dt ->
             fetch_result step ~now:(!now + dt)
               ~kind:(if dt land 1 = 0 then Demand else Prefetch)
               ~page:(dt mod 200) ~words:(dt mod 65) ~immune:false);
          agree step "pending" string_of_int (Device.Model.pending m) (Reference.pending r))
        s.ops;
      let last = List.length s.ops in
      if s.event_loop then while take last do () done;
      agree last "io events" Fun.id (Buffer.contents m_events) (Buffer.contents r_events);
      if Device.Model.stats m <> Reference.stats r then
        QCheck.Test.fail_reportf "stats differ from the reference's";
      true)

let () =
  Alcotest.run "device"
    [
      ( "geometry",
        [
          Alcotest.test_case "fixed service" `Quick test_fixed_service;
          Alcotest.test_case "drum rotation" `Quick test_drum_rotation;
          Alcotest.test_case "disk seek" `Quick test_disk_seek_moves_head;
          Alcotest.test_case "worst_us bound" `Quick test_worst_us_bounds_service;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "satf beats fifo" `Quick test_satf_beats_fifo;
          Alcotest.test_case "priority" `Quick test_priority_serves_demand_first;
          Alcotest.test_case "channels overlap" `Quick test_channels_overlap;
          Alcotest.test_case "event-loop delivery" `Quick test_event_loop_delivery;
          Alcotest.test_case "double completion" `Quick test_double_completion_rejected;
        ] );
      ( "engines",
        [
          Alcotest.test_case "fixed/fifo = legacy" `Quick test_fixed_fifo_matches_legacy;
        ] );
      ( "faults",
        [
          Alcotest.test_case "timing only" `Quick test_faults_are_timing_only;
          Alcotest.test_case "degraded fallback" `Quick test_degraded_fallback_is_bounded;
          Alcotest.test_case "writes never fault" `Quick test_writes_never_fault;
          Alcotest.test_case "Io_retry events" `Quick test_retries_surface_as_events;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest model_matches_reference;
          Alcotest.test_case "fifo channel is M/D/1" `Quick test_fifo_is_md1;
        ] );
      ( "memory",
        [ Alcotest.test_case "answered requests leave nothing" `Quick test_answers_leave_nothing ] );
    ]
