(* Tests for the resilience subsystem: the fault vocabulary and typed
   failure propagation (Device.Fault escalation, Resilience.Failure),
   per-layer recovery (demand mirror/surface, the swapper's mirrored
   write-outs and surfaced swap-in failures, the scheduler's bounded
   abort-and-restart), the space-time-product load
   controller, and the seeded chaos harness with its three recovery
   invariants. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- helpers --- *)

let drum = Device.Geometry.atlas_drum

let fail_all ?(write_error_prob = 0.) ?(permanent_prob = 0.) ?(max_retries = 1)
    ?(on_exhausted = Device.Fault.Fail) ?(read_error_prob = 1.0) () =
  Device.Fault.config ~seed:11 ~read_error_prob ~write_error_prob
    ~permanent_prob ~max_retries ~on_exhausted ()

let model ?obs ?fault () =
  Device.Model.create ?obs (Device.Model.config ?fault drum)

let page_size = 64

let pages = 24

(* A small demand engine over [device]; 8 frames, LRU. *)
let demand_engine ?obs ?recovery ~device () =
  Paging.Spec.build ?obs ~device ?recovery ~clock:(Sim.Clock.create ()) ~rng:(Sim.Rng.create 0)
    { Paging.Spec.e_page_size = page_size; e_frames = 8; e_pages = pages;
      e_device = Memstore.Device.drum; e_policy = Paging.Spec.Lru; e_tlb_slots = None;
      e_compute_us_per_ref = 30 }

let jobs ?(seed = 31) ~refs_per_job () =
  Workload.Job.mix (Sim.Rng.create seed) ~jobs:4 ~refs_per_job ~pages_per_job:12
    ~locality:0.9 ~compute_us_per_ref:60

(* --- Device.Fault: the write-side and permanence rolls --- *)

let test_fault_inert_when_off () =
  let f = Device.Fault.create (fail_all ~read_error_prob:0. ()) in
  for _ = 1 to 50 do
    check_bool "no read errors at p=0" true
      (Device.Fault.attempt f ~immune:false ~kind:Device.Request.Demand
      = Device.Fault.Clean)
  done;
  check_int "nothing injected" 0 (Device.Fault.injected f)

let test_fault_write_rolls_skipped () =
  (* write_error_prob = 0: writebacks are never at risk, and each
     skipped roll is counted so the fault-rate arithmetic stays honest. *)
  let f = Device.Fault.create (fail_all ()) in
  for _ = 1 to 7 do
    check_bool "writebacks exempt" true
      (Device.Fault.attempt f ~immune:false ~kind:Device.Request.Writeback
      = Device.Fault.Clean)
  done;
  check_int "skipped rolls counted" 7 (Device.Fault.write_rolls_skipped f);
  check_int "nothing write-injected" 0 (Device.Fault.write_injected f);
  (* Immune requests (recovery re-fetches) are also never rolled. *)
  check_bool "immune demand is clean" true
    (Device.Fault.attempt f ~immune:true ~kind:Device.Request.Demand
    = Device.Fault.Clean);
  check_bool "non-immune demand fails at p=1" true
    (Device.Fault.attempt f ~immune:false ~kind:Device.Request.Demand
    <> Device.Fault.Clean)

let test_fault_permanent_marking () =
  let f = Device.Fault.create (fail_all ~permanent_prob:1.0 ()) in
  check_bool "failed roll marked permanent" true
    (Device.Fault.attempt f ~immune:false ~kind:Device.Request.Demand
    = Device.Fault.Permanent);
  check_int "permanent counted" 1 (Device.Fault.permanent_count f)

let test_fault_escalation_modes () =
  (* Same always-failing schedule; only the exhaustion policy differs. *)
  let fetch fault =
    let m = model ~fault () in
    Device.Model.fetch_result m ~now:0 ~kind:Device.Request.Demand ~page:3
      ~words:page_size
  in
  (match fetch (fail_all ~max_retries:2 ~on_exhausted:Device.Fault.Fail ()) with
  | Error f ->
    check_int "initial attempt + retries" 3 f.Device.Model.attempts;
    check_int "failure names the page" 3 f.Device.Model.page
  | Ok _ -> Alcotest.fail "Fail escalation must surface a failure");
  match fetch (fail_all ~max_retries:2 ~on_exhausted:Device.Fault.Degrade ()) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "Degrade escalation never surfaces a failure"

(* --- Device.Model: terminal-failure records --- *)

let test_model_failure_delivered_once () =
  let m = model ~fault:(fail_all ~max_retries:0 ()) () in
  let id = Device.Model.submit m ~now:0 ~kind:Device.Request.Demand ~page:5 ~words:0 in
  let got = ref [] in
  let note ~id ~page:_ ~finish_us failure = got := (id, finish_us, failure) :: !got in
  check_bool "delivered" true (Device.Model.take_completion m note);
  (match !got with
  | [ (req, fin, Some f) ] ->
    (* The failed request still finishes in time, and its delivery
       carries the failure record. *)
    check_int "delivered request" id req;
    check_bool "failure still takes channel time" true (fin > 0);
    check_int "req id" id f.Device.Model.req;
    check_int "failed when it finished" fin f.Device.Model.at_us;
    check_bool "demand kind" true (f.Device.Model.kind = Device.Request.Demand)
  | _ -> Alcotest.fail "expected one delivery with a terminal failure record");
  (* Delivered once: nothing is held for the request afterwards. *)
  check_bool "record consumed" false (Device.Model.take_completion m note);
  check_int "one delivery" 1 (List.length !got)

let test_failure_vocabulary () =
  let dev =
    {
      Device.Model.req = 7;
      page = 3;
      kind = Device.Request.Demand;
      attempts = 2;
      at_us = 1_234;
    }
  in
  (match Resilience.Failure.of_device dev with
  | Resilience.Failure.Io_failed { page; attempts; at_us; _ } ->
    check_int "page carried" 3 page;
    check_int "attempts carried" 2 attempts;
    check_int "time carried" 1_234 at_us
  | _ -> Alcotest.fail "of_device must build Io_failed");
  List.iter
    (fun f ->
      check_int "at_us accessor" 9 (Resilience.Failure.at_us f);
      check_bool "printable" true (String.length (Resilience.Failure.to_string f) > 0))
    [
      Resilience.Failure.Io_failed
        { page = 1; io = Obs.Event.Demand; attempts = 2; at_us = 9 };
      Resilience.Failure.Swap_in_failed { segment = 1; words = 100; attempts = 1; at_us = 9 };
      Resilience.Failure.Job_failed { job = 0; restarts = 3; at_us = 9 };
    ]

(* --- Paging.Demand: mirror re-fetch vs surfaced failure --- *)

let test_demand_mirror_recovers () =
  let m = model ~fault:(fail_all ~permanent_prob:1.0 ()) () in
  let engine = demand_engine ~device:m ~recovery:Paging.Demand.Mirror () in
  for name = 0 to (4 * page_size) - 1 do
    match Paging.Demand.read_result engine name with
    | Ok _ -> ()
    | Error f ->
      Alcotest.failf "mirror recovery must not surface: %s"
        (Resilience.Failure.to_string f)
  done;
  check_bool "every fetch needed the mirror" true
    (Paging.Demand.mirror_fetches engine >= 4);
  check_int "nothing surfaced" 0 (Paging.Demand.hard_failures engine)

let test_demand_surface_fails () =
  let m = model ~fault:(fail_all ~permanent_prob:1.0 ()) () in
  let engine = demand_engine ~device:m ~recovery:Paging.Demand.Surface () in
  (match Paging.Demand.read_result engine 0 with
  | Error (Resilience.Failure.Io_failed { attempts; _ }) ->
    (* The very first attempt hits the permanent media error: no retry
       can help, so the device reports a single attempt. *)
    check_int "attempts reported" 1 attempts
  | Error f ->
    Alcotest.failf "wrong failure: %s" (Resilience.Failure.to_string f)
  | Ok _ -> Alcotest.fail "surface mode must report the failure");
  check_bool "page not installed" true (Paging.Demand.frame_of engine ~page:0 = None);
  (* The reference can be retried; the media error is permanent, so it
     fails again — and is counted again. *)
  check_bool "retry fails again" true
    (Result.is_error (Paging.Demand.read_result engine 0));
  check_int "both surfaced" 2 (Paging.Demand.hard_failures engine)

(* --- Swapping.Swapper: surfaced swap-ins, mirrored write-outs --- *)

let swapper ~fault ~words =
  let clock = Sim.Clock.create () in
  let core = Memstore.Level.make clock Memstore.Device.core ~name:"core" ~words in
  let backing =
    Memstore.Level.make clock Memstore.Device.drum ~name:"drum" ~words:(2 * words)
  in
  Swapping.Swapper.create
    {
      Swapping.Swapper.core;
      backing;
      placement = Freelist.Policy.First_fit;
      compact_on_failure = true;
      device = Some (model ~fault ());
    }

let test_swapper_permanent_swap_in_failure () =
  let s = swapper ~fault:(fail_all ~permanent_prob:1.0 ()) ~words:1_000 in
  let p = Swapping.Swapper.add_program s ~name:"victim" ~size:400 in
  (match Swapping.Swapper.read_result s p 7 with
  | Error (Resilience.Failure.Swap_in_failed { words; attempts; _ }) ->
    check_int "whole program failed" 400 words;
    check_bool "attempts reported" true (attempts >= 1)
  | Error f -> Alcotest.failf "wrong failure: %s" (Resilience.Failure.to_string f)
  | Ok _ -> Alcotest.fail "permanent media error must surface");
  check_bool "program stays swapped out" true (not (Swapping.Swapper.in_core s p));
  check_bool "placement released" true (Swapping.Swapper.base_of s p = None);
  check_int "failure counted" 1 (Swapping.Swapper.swap_in_failures s);
  (* The backing image is intact, so the retry path is still open (it
     fails again here only because the media error is permanent). *)
  check_bool "retry surfaces again" true
    (Result.is_error (Swapping.Swapper.read_result s p 7));
  check_int "counted again" 2 (Swapping.Swapper.swap_in_failures s)

let test_swapper_mirror_write () =
  (* Reads clean, every write-out fails: the modified image is the only
     current copy, so the swapper must rescue it over the mirror. *)
  let s =
    swapper
      ~fault:(fail_all ~read_error_prob:0. ~write_error_prob:1.0 ~permanent_prob:1.0 ())
      ~words:1_000
  in
  let p = Swapping.Swapper.add_program s ~name:"dirty" ~size:400 in
  (match Swapping.Swapper.write_result s p 3 42L with
  | Ok () -> ()
  | Error f -> Alcotest.failf "write-in failed: %s" (Resilience.Failure.to_string f));
  Swapping.Swapper.swap_out s p;
  check_bool "failed write-out mirrored" true (Swapping.Swapper.mirror_writes s >= 1);
  (* Nothing surfaced, and the mirrored image is the one we wrote. *)
  match Swapping.Swapper.read_result s p 3 with
  | Ok v -> check_bool "data survived the mirror" true (v = 42L)
  | Error f -> Alcotest.failf "re-swap-in failed: %s" (Resilience.Failure.to_string f)

(* --- Core.Multiprog: bounded abort-and-restart, stalled-queue wakeup --- *)

let test_multiprog_abort_and_restart () =
  let m =
    model
      ~fault:
        (fail_all ~read_error_prob:0.12 ~permanent_prob:0.3 ~max_retries:1 ())
      ()
  in
  (* Enough frames that a pass is mostly cold faults: a restart is
     likely but a 50-restart budget is effectively inexhaustible. *)
  let report =
    Dsas.Multiprog.run ~device:m ~max_restarts:50 ~frames:24
      ~policy:(Paging.Replacement.lru ())
      ~fetch_us:3_000
      (jobs ~refs_per_job:200 ())
  in
  check_bool "failures forced restarts" true (report.Dsas.Multiprog.restarts > 0);
  check_int "generous budget: nobody fails" 0 report.Dsas.Multiprog.jobs_failed;
  List.iter
    (fun (j : Dsas.Multiprog.job_report) ->
      check_bool "job completed" true j.Dsas.Multiprog.completed;
      check_int "full trace executed" 200 j.Dsas.Multiprog.refs)
    report.Dsas.Multiprog.jobs

let test_multiprog_terminal_failure () =
  let m = model ~fault:(fail_all ~permanent_prob:1.0 ~max_retries:0 ()) () in
  let report =
    Dsas.Multiprog.run ~device:m ~max_restarts:0 ~frames:10
      ~policy:(Paging.Replacement.lru ())
      ~fetch_us:3_000
      (jobs ~refs_per_job:100 ())
  in
  check_int "every job's budget spends" 4 report.Dsas.Multiprog.jobs_failed;
  List.iter
    (fun (j : Dsas.Multiprog.job_report) ->
      check_bool "reported incomplete" true (not j.Dsas.Multiprog.completed))
    report.Dsas.Multiprog.jobs;
  (* The run itself terminates and reports honestly. *)
  check_bool "clock advanced" true (report.Dsas.Multiprog.elapsed_us > 0)

let test_multiprog_stalled_queue_wakeup () =
  (* A controller so greedy it sheds every window: scheduling would go
     idle with parked jobs remaining, so the scheduler must force
     re-admissions rather than deadlock. *)
  let controller =
    Resilience.Controller.create
      (Resilience.Controller.config ~period_us:2_000 ~low_utilization:0.99
         ~high_utilization:1.0 ~min_active:1 ())
  in
  let report =
    Dsas.Multiprog.run ~controller ~frames:10
      ~policy:(Paging.Replacement.lru ())
      ~fetch_us:5_000
      (jobs ~refs_per_job:150 ())
  in
  check_bool "controller did shed" true (Resilience.Controller.sheds controller > 0);
  check_int "nobody lost" 0 report.Dsas.Multiprog.jobs_failed;
  List.iter
    (fun (j : Dsas.Multiprog.job_report) ->
      check_bool "shed job still finishes" true j.Dsas.Multiprog.completed)
    report.Dsas.Multiprog.jobs

(* --- Resilience.Controller: hysteresis and victim choice --- *)

let test_controller_hysteresis () =
  let c =
    Resilience.Controller.create
      (Resilience.Controller.config ~period_us:1_000 ~low_utilization:0.35
         ~high_utilization:0.65 ~min_active:1 ())
  in
  check_bool "no verdict before a full window" true
    (Resilience.Controller.tick c ~now:500 ~n_active:3 ~n_parked:0
    = Resilience.Controller.Steady);
  (* Window 1: idle -> shed. *)
  check_bool "thrashing window sheds" true
    (Resilience.Controller.tick c ~now:1_000 ~n_active:3 ~n_parked:0
    = Resilience.Controller.Shed_one);
  Resilience.Controller.note_shed c;
  (* Window 2: busy -> re-admit the parked job. *)
  Resilience.Controller.observe_execute c ~us:900;
  check_bool "healthy window re-admits" true
    (Resilience.Controller.tick c ~now:2_000 ~n_active:2 ~n_parked:1
    = Resilience.Controller.Admit_one);
  Resilience.Controller.note_admit c;
  (* Window 3: between the watermarks -> no oscillation. *)
  Resilience.Controller.observe_execute c ~us:500;
  check_bool "marginal window is steady" true
    (Resilience.Controller.tick c ~now:3_000 ~n_active:3 ~n_parked:0
    = Resilience.Controller.Steady);
  check_int "windows closed" 3 (Resilience.Controller.ticks c);
  check_int "sheds recorded" 1 (Resilience.Controller.sheds c);
  check_int "admits recorded" 1 (Resilience.Controller.admits c)

let test_controller_min_active_floor () =
  let c =
    Resilience.Controller.create
      (Resilience.Controller.config ~period_us:1_000 ~min_active:2 ())
  in
  check_bool "never sheds below the floor" true
    (Resilience.Controller.tick c ~now:1_000 ~n_active:2 ~n_parked:0
    = Resilience.Controller.Steady)

let test_controller_choose_victim () =
  let c =
    Resilience.Controller.create
      (Resilience.Controller.config ~period_us:1_000 ())
  in
  check_bool "no candidates, no victim" true
    (Resilience.Controller.choose_victim c ~candidates:[] = None);
  (* Job 1 faults heavily over the window; with equal occupancy its
     space-time product dominates. *)
  for _ = 1 to 5 do
    Resilience.Controller.observe_fault c ~job:1
  done;
  Resilience.Controller.observe_fault c ~job:0;
  let (_ : Resilience.Controller.verdict) =
    Resilience.Controller.tick c ~now:1_000 ~n_active:2 ~n_parked:0
  in
  check_bool "largest space-time product shed" true
    (Resilience.Controller.choose_victim c ~candidates:[ (0, 8); (1, 8) ] = Some 1);
  (* Occupancy weighs in: the same faults over more frames cost more. *)
  check_bool "occupancy breaks the balance" true
    (Resilience.Controller.choose_victim c ~candidates:[ (0, 40); (1, 8) ] = Some 0);
  check_bool "ties keep the earliest" true
    (Resilience.Controller.choose_victim c ~candidates:[ (2, 0); (3, 0) ] = Some 2)

(* --- Obs.Check: the three recovery invariants --- *)

let ev ~t_us kind = Obs.Event.make ~t_us kind

let violated (r : Obs.Check.report) id =
  List.exists (fun (i, _) -> Obs.Check.invariant_id i = id) r.Obs.Check.counts

let test_check_retry_bounded () =
  let events =
    Obs.Event.
      [
        ev ~t_us:0 (Io_start { req = 0; page = 1; io = Demand });
        ev ~t_us:1 (Io_retry { req = 0; attempt = 1 });
        (* Gap: attempt 3 without attempt 2. *)
        ev ~t_us:2 (Io_retry { req = 0; attempt = 3 });
        ev ~t_us:3 (Io_error { req = 0; page = 1; io = Demand; attempts = 4 });
      ]
  in
  check_bool "retry gap caught" true
    (violated (Obs.Check.check_events events) "retry-bounded");
  let undercount =
    Obs.Event.
      [
        ev ~t_us:0 (Io_start { req = 0; page = 1; io = Demand });
        ev ~t_us:1 (Io_retry { req = 0; attempt = 1 });
        ev ~t_us:2 (Io_retry { req = 0; attempt = 2 });
        (* The error claims fewer attempts than the retries it follows. *)
        ev ~t_us:3 (Io_error { req = 0; page = 1; io = Demand; attempts = 1 });
      ]
  in
  check_bool "attempt undercount caught" true
    (violated (Obs.Check.check_events undercount) "retry-bounded")

let test_check_restart_bounded () =
  let events =
    Obs.Event.
      [
        ev ~t_us:0 (Job_start { job = 0 });
        ev ~t_us:1 (Job_abort { job = 0; restarts = 1 });
        (* Restart count must climb by one. *)
        ev ~t_us:2 (Job_abort { job = 0; restarts = 3 });
        ev ~t_us:3 (Job_stop { job = 0 });
      ]
  in
  check_bool "restart jump caught" true
    (violated (Obs.Check.check_events events) "restart-bounded");
  let not_running =
    Obs.Event.[ ev ~t_us:0 (Job_abort { job = 4; restarts = 1 }) ]
  in
  check_bool "abort of a job never started caught" true
    (violated (Obs.Check.check_events not_running) "restart-bounded")

let test_check_no_lost_job () =
  let lost =
    Obs.Event.
      [
        ev ~t_us:0 (Job_start { job = 0 });
        ev ~t_us:1 (Job_start { job = 1 });
        ev ~t_us:2 (Job_stop { job = 0 });
        (* Job 1 is still running at end of stream. *)
      ]
  in
  check_bool "job left running caught" true
    (violated (Obs.Check.check_events lost) "no-lost-job");
  let shed_forever =
    Obs.Event.
      [
        ev ~t_us:0 (Job_start { job = 0 });
        ev ~t_us:1 (Load_shed { job = 0 });
        (* Stopped while shed, never re-admitted. *)
        ev ~t_us:2 (Job_stop { job = 0 });
      ]
  in
  check_bool "shed-and-abandoned caught" true
    (violated (Obs.Check.check_events shed_forever) "no-lost-job");
  let healthy =
    Obs.Event.
      [
        ev ~t_us:0 (Job_start { job = 0 });
        ev ~t_us:1 (Load_shed { job = 0 });
        ev ~t_us:2 (Load_admit { job = 0 });
        ev ~t_us:3 (Job_stop { job = 0 });
      ]
  in
  check_bool "shed/admit/stop is clean" true
    (Obs.Check.ok (Obs.Check.check_events healthy))

(* --- Resilience.Chaos: the harness itself --- *)

let test_chaos_schedule_bounds () =
  let rng = Sim.Rng.create 77 in
  for _ = 1 to 100 do
    let c = Resilience.Chaos.schedule rng in
    check_bool "read prob in [0.05, 0.45)" true
      (c.Device.Fault.read_error_prob >= 0.05 && c.Device.Fault.read_error_prob < 0.45);
    check_bool "write prob bounded" true
      (c.Device.Fault.write_error_prob >= 0. && c.Device.Fault.write_error_prob < 1.);
    check_bool "permanence bounded" true
      (c.Device.Fault.permanent_prob >= 0. && c.Device.Fault.permanent_prob <= 0.3);
    check_bool "retries 0-3" true
      (c.Device.Fault.max_retries >= 0 && c.Device.Fault.max_retries <= 3);
    check_bool "chaos always escalates" true
      (c.Device.Fault.on_exhausted = Device.Fault.Fail)
  done

let test_chaos_reproducible () =
  let go () =
    Resilience.Chaos.run
      ~scenarios:(Experiments.X9_resilience.scenarios ~quick:true ())
      ~runs:8 ~seed:0xFEED ()
  in
  let a = go () and b = go () in
  check_int "same events" a.Resilience.Chaos.events b.Resilience.Chaos.events;
  check_int "same violations" a.Resilience.Chaos.violations b.Resilience.Chaos.violations;
  Alcotest.(check (list (pair string int)))
    "same counter totals" a.Resilience.Chaos.totals b.Resilience.Chaos.totals;
  check_int "missing counter reads 0" 0 (Resilience.Chaos.counter a "no-such-counter")

(* The acceptance sweep: 200 fixed-seed chaos runs across all four
   scenarios, zero invariant violations, and every recovery policy in
   the subsystem exercised at least once. *)
let test_chaos_sweep_200 () =
  let s =
    Resilience.Chaos.run
      ~scenarios:(Experiments.X9_resilience.scenarios ~quick:true ())
      ~runs:200 ~seed:0xC7A05 ()
  in
  check_int "200 runs executed" 200 (List.length s.Resilience.Chaos.rounds);
  if not (Resilience.Chaos.ok s) then begin
    List.iter
      (fun (r : Resilience.Chaos.round) ->
        if not (Obs.Check.ok r.Resilience.Chaos.check) then begin
          Printf.printf "run %d (%s):\n" r.Resilience.Chaos.index
            r.Resilience.Chaos.scenario;
          Obs.Check.print r.Resilience.Chaos.check
        end)
      s.Resilience.Chaos.rounds;
    Alcotest.failf "%d invariant violations" s.Resilience.Chaos.violations
  end;
  List.iter
    (fun name ->
      check_bool (name ^ " exercised") true (Resilience.Chaos.counter s name > 0))
    [
      (* demand: mirror re-fetch and surfaced hard failure *)
      "mirror_fetches";
      "hard_failures";
      (* swapper: surfaced swap-in, mirrored write-out, compaction retry *)
      "swap_in_failures";
      "mirror_writes";
      "compactions";
      (* scheduler: bounded abort-and-restart, load shedding *)
      "restarts";
      "load_sheds";
      "load_admits";
      (* write-side honesty *)
      "write_rolls_skipped";
    ]

(* --- property: any fault schedule, mirror recovery absorbs it all --- *)

let collect_events f =
  let acc = ref [] in
  f (Obs.Sink.collect (fun e -> acc := e :: !acc));
  List.rev !acc

(* Shard-kill rounds splice their engine and supervision streams as
   consecutive segments of raw engine stamps.  Each segment must start
   one past the previous segment's last shifted stamp, not past the
   running sum of its stamps. *)
let test_chaos_shard_kill_segment_offsets () =
  let scenario =
    Resilience.Chaos.Shard_kills
      {
        name = "synthetic";
        shards = 1;
        steps = 1;
        run =
          (fun ~seed:_ ~kills:_ ~engine ~supervision ->
            List.iter
              (fun t -> Obs.Sink.emit engine (ev ~t_us:t (Obs.Event.Fault { page = t })))
              [ 100; 250; 400 ];
            List.iter
              (fun t ->
                Obs.Sink.emit supervision
                  (ev ~t_us:t
                     (Obs.Event.Shard_checkpoint { shard = 0; progress = t; events = 0 })))
              [ 300; 900 ];
            []);
      }
  in
  let events =
    collect_events (fun trace ->
        let (_ : Resilience.Chaos.summary) =
          Resilience.Chaos.run ~trace ~scenarios:[ scenario ] ~runs:2 ~seed:7 ()
        in
        ())
  in
  let starts =
    List.filter_map
      (fun (e : Obs.Event.t) ->
        match e.kind with Obs.Event.Run_start _ -> Some e.t_us | _ -> None)
      events
  in
  (* engine [0, 400], supervision 401 + [300, 900], then round two *)
  Alcotest.(check (list int)) "run_start stamps" [ 0; 401; 1302; 1703 ] starts;
  check_int "last stamp" (1703 + 900)
    (List.fold_left (fun acc (e : Obs.Event.t) -> max acc e.t_us) 0 events)

(* A summary's [events] is the line count of the stream it wrote, the
   figure `dsas_sim check` reports for the --trace file: for device
   faults (one segment a round) and for shard kills (two), boundaries
   included. *)
let test_chaos_events_match_check () =
  List.iter
    (fun (label, scenarios) ->
      let buf = Buffer.create 4096 in
      let trace =
        Obs.Sink.collect (fun e ->
            Buffer.add_string buf (Obs.Event.to_json e);
            Buffer.add_char buf '\n')
      in
      let s = Resilience.Chaos.run ~trace ~scenarios ~runs:4 ~seed:0xC7A05 () in
      let path = Readers.temp_file (Buffer.contents buf) in
      let report = Readers.check_file path in
      Sys.remove path;
      let report = match report with Ok r -> r | Error e -> Alcotest.fail e in
      check_bool (label ^ " trace is clean") true (Obs.Check.ok report);
      check_int (label ^ " events = checked lines") report.Obs.Check.events
        s.Resilience.Chaos.events)
    [
      ("device faults", Experiments.X9_resilience.scenarios ~quick:true ());
      ("shard kills", Experiments.Par_chaos.scenarios ~quick:true ~domains:1 ());
    ]

let fault_schedule_gen =
  QCheck.(
    quad (int_range 0 10_000) (float_range 0. 1.) (float_range 0. 1.)
      (int_range 0 4))

let mirror_absorbs_any_schedule =
  QCheck.Test.make
    ~name:"mirror recovery absorbs any fault schedule, trace stays valid"
    ~count:40 fault_schedule_gen
    (fun (seed, read_error_prob, permanent_prob, max_retries) ->
      let fault =
        Device.Fault.config ~seed ~read_error_prob ~permanent_prob ~max_retries
          ~on_exhausted:Device.Fault.Fail ()
      in
      let surfaced = ref 0 in
      let events =
        collect_events (fun obs ->
            let m = model ~obs ~fault () in
            let engine =
              demand_engine ~obs ~device:m ~recovery:Paging.Demand.Mirror ()
            in
            let rng = Sim.Rng.create (seed lxor 0x5A5A) in
            for _ = 1 to 150 do
              let name = Sim.Rng.int rng (pages * page_size) in
              (match Paging.Demand.read_result engine name with
              | Ok _ -> ()
              | Error _ -> incr surfaced)
            done)
      in
      !surfaced = 0 && Obs.Check.ok (Obs.Check.check_events events))

let () =
  Alcotest.run "resilience"
    [
      ( "fault",
        [
          Alcotest.test_case "inert when off" `Quick test_fault_inert_when_off;
          Alcotest.test_case "write rolls skipped" `Quick test_fault_write_rolls_skipped;
          Alcotest.test_case "permanent marking" `Quick test_fault_permanent_marking;
          Alcotest.test_case "escalation modes" `Quick test_fault_escalation_modes;
          Alcotest.test_case "failure record consumed" `Quick test_model_failure_delivered_once;
          Alcotest.test_case "failure vocabulary" `Quick test_failure_vocabulary;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "demand mirror" `Quick test_demand_mirror_recovers;
          Alcotest.test_case "demand surface" `Quick test_demand_surface_fails;
          Alcotest.test_case "swapper swap-in failure" `Quick
            test_swapper_permanent_swap_in_failure;
          Alcotest.test_case "swapper mirror write" `Quick test_swapper_mirror_write;
          Alcotest.test_case "multiprog abort-and-restart" `Quick
            test_multiprog_abort_and_restart;
          Alcotest.test_case "multiprog terminal failure" `Quick
            test_multiprog_terminal_failure;
          Alcotest.test_case "multiprog stalled-queue wakeup" `Quick
            test_multiprog_stalled_queue_wakeup;
        ] );
      ( "controller",
        [
          Alcotest.test_case "hysteresis" `Quick test_controller_hysteresis;
          Alcotest.test_case "min-active floor" `Quick test_controller_min_active_floor;
          Alcotest.test_case "choose victim" `Quick test_controller_choose_victim;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "retry bounded" `Quick test_check_retry_bounded;
          Alcotest.test_case "restart bounded" `Quick test_check_restart_bounded;
          Alcotest.test_case "no lost job" `Quick test_check_no_lost_job;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "schedule bounds" `Quick test_chaos_schedule_bounds;
          Alcotest.test_case "reproducible" `Quick test_chaos_reproducible;
          Alcotest.test_case "200-run sweep" `Slow test_chaos_sweep_200;
          Alcotest.test_case "sharded segment offsets" `Quick
            test_chaos_shard_kill_segment_offsets;
          Alcotest.test_case "events match check" `Quick test_chaos_events_match_check;
          QCheck_alcotest.to_alcotest mirror_absorbs_any_schedule;
        ] );
    ]
