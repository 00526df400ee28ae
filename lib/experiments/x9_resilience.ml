(* X9 (extension): end-to-end failure semantics and load control.

   Two sweeps.  First, the multiprogrammed set from C7/X8d run over a
   faulty drum with [Fail] escalation: terminal fetch failures abort
   and restart jobs (bounded), and the space-time-product controller
   sheds/re-admits jobs as the set thrashes.  Second, the write-side
   fault accounting of the demand engine: with write faults off, every
   write attempt's skipped roll is counted, so the fault-rate
   arithmetic of the x8 tables stays honest. *)

type row = {
  error_prob : float;
  policy : string;
  cpu_utilization : float;
  elapsed_us : int;
  total_faults : int;
  restarts : int;
  jobs_failed : int;
  sheds : int;
  admits : int;
  injected : int;
  failed : int;
}

type write_row = {
  write_error_prob : float;
  writebacks : int;
  write_injected : int;
  write_rolls_skipped : int;
  mirror_fetches : int;
  terminal_failures : int;
}

let frames = 16

let pages_per_job = 16

let jobs_mix ?seed ~refs_per_job () =
  let rng = Sim.Rng.derive ?override:seed 909 in
  Workload.Job.mix rng ~jobs:6 ~refs_per_job ~pages_per_job ~locality:0.9
    ~compute_us_per_ref:60

let fault_for ~error_prob =
  if error_prob > 0. then
    Some
      (Device.Fault.config ~read_error_prob:error_prob ~permanent_prob:0.25
         ~max_retries:2 ~on_exhausted:Device.Fault.Fail ())
  else None

let policies = [ "none"; "space-time" ]

let error_probs ~quick = if quick then [ 0.; 0.15 ] else [ 0.; 0.05; 0.15; 0.3 ]

let one ?seed ~obs ~refs_per_job ~error_prob ~policy () =
  let fault = fault_for ~error_prob in
  let model =
    Device.Model.create
      (Device.Model.config ?fault ~sched:Device.Sched.Satf Device.Geometry.atlas_drum)
  in
  let controller =
    if policy = "none" then None
    else Some (Resilience.Controller.create (Resilience.Controller.config ()))
  in
  let report =
    Dsas.Multiprog.run ~obs ~device:model ?controller ~frames
      ~policy:(Paging.Replacement.lru ()) ~fetch_us:5_000
      (jobs_mix ?seed ~refs_per_job ())
  in
  let stats = Device.Model.stats model in
  {
    error_prob;
    policy;
    cpu_utilization = report.Dsas.Multiprog.cpu_utilization;
    elapsed_us = report.Dsas.Multiprog.elapsed_us;
    total_faults = report.Dsas.Multiprog.total_faults;
    restarts = report.Dsas.Multiprog.restarts;
    jobs_failed = report.Dsas.Multiprog.jobs_failed;
    sheds = (match controller with None -> 0 | Some c -> Resilience.Controller.sheds c);
    admits = (match controller with None -> 0 | Some c -> Resilience.Controller.admits c);
    injected = stats.Device.Model.injected;
    failed = stats.Device.Model.failed;
  }

let measure ?(quick = false) ?(obs = Obs.Sink.null) ?seed () =
  let refs_per_job = if quick then 250 else 1_200 in
  let sp = Obs.Sink.splice ?seed obs in
  List.concat_map
    (fun error_prob ->
      List.map
        (fun policy ->
          let config = Printf.sprintf "x9 error_prob=%g policy=%s" error_prob policy in
          let r =
            one ?seed ~obs:(Obs.Sink.next sp ~config) ~refs_per_job ~error_prob ~policy ()
          in
          Obs.Sink.advance sp r.elapsed_us;
          r)
        policies)
    (error_probs ~quick)

(* --- write-side fault accounting (demand engine, satellite honesty) --- *)

let page_size = 64

let demand_pages = 24

let demand_engine ?obs ~device ~recovery () =
  Paging.Spec.build ?obs ~device ~recovery ~clock:(Sim.Clock.create ())
    ~rng:(Sim.Rng.create 0)
    { Paging.Spec.e_page_size = page_size; e_frames = 8; e_pages = demand_pages;
      e_device = Memstore.Device.drum; e_policy = Paging.Spec.Lru; e_tlb_slots = None;
      e_compute_us_per_ref = 30 }

let demand_trace ?seed ~refs () =
  let rng = Sim.Rng.derive ?override:seed 1109 in
  let page_trace =
    Workload.Trace.working_set_phases rng ~length:refs ~extent:demand_pages
      ~set_size:6 ~phase_length:(max 1 (refs / 8)) ~locality:0.95
  in
  Array.map (fun p -> (p * page_size) + Sim.Rng.int rng page_size) page_trace

(* One write in four: enough writeback traffic that the skipped-roll
   count is visibly nonzero when write faults are off. *)
let drive_trace engine trace =
  Array.iteri
    (fun i name ->
      if i land 3 = 0 then Paging.Demand.write engine name (Int64.of_int name)
      else
        let (_ : int64) = Paging.Demand.read engine name in
        ())
    trace

let measure_writes ?(quick = false) ?seed () =
  let refs = if quick then 800 else 4_000 in
  let trace = demand_trace ?seed ~refs () in
  List.map
    (fun write_error_prob ->
      let fault =
        Device.Fault.config ~read_error_prob:0.05 ~write_error_prob
          ~permanent_prob:0.2 ~max_retries:2 ~on_exhausted:Device.Fault.Fail ()
      in
      let model =
        Device.Model.create
          (Device.Model.config ~fault ~sched:Device.Sched.Fifo
             Device.Geometry.atlas_drum)
      in
      let engine = demand_engine ~device:model ~recovery:Paging.Demand.Mirror () in
      drive_trace engine trace;
      let stats = Device.Model.stats model in
      {
        write_error_prob;
        writebacks = Paging.Demand.writebacks engine;
        write_injected = stats.Device.Model.write_injected;
        write_rolls_skipped = stats.Device.Model.write_rolls_skipped;
        mirror_fetches = Paging.Demand.mirror_fetches engine;
        terminal_failures = stats.Device.Model.failed;
      })
    [ 0.; 0.1 ]

(* --- chaos scenarios (closures handed to Resilience.Chaos) --- *)

let demand_scenario ~name ~recovery ~quick =
  Resilience.Chaos.Device_faults
    {
      name;
      run =
        (fun ~seed ~fault ~obs ->
          let refs = if quick then 300 else 800 in
          let trace = demand_trace ~seed ~refs () in
          let model =
            Device.Model.create ~obs
              (Device.Model.config ~fault ~sched:Device.Sched.Fifo
                 Device.Geometry.atlas_drum)
          in
          let engine = demand_engine ~obs ~device:model ~recovery () in
          let surfaced = ref 0 in
          (* One write in four: modified evictions feed write-backs into
             the faulty device, exercising the write-side rolls. *)
          Array.iteri
            (fun i name ->
              let r =
                if i land 3 = 0 then
                  Paging.Demand.write_result engine name (Int64.of_int name)
                else
                  Result.map
                    (fun (_ : int64) -> ())
                    (Paging.Demand.read_result engine name)
              in
              match r with Ok () -> () | Error _ -> incr surfaced)
            trace;
          let stats = Device.Model.stats model in
          [
            ("faults", Paging.Demand.faults engine);
            ("mirror_fetches", Paging.Demand.mirror_fetches engine);
            ("hard_failures", Paging.Demand.hard_failures engine);
            ("surfaced", !surfaced);
            ("injected", stats.Device.Model.injected);
            ("write_rolls_skipped", stats.Device.Model.write_rolls_skipped);
          ]);
    }

let swapper_scenario ~quick =
  Resilience.Chaos.Device_faults
    {
      name = "swapper-mirror-write";
      run =
        (fun ~seed ~fault ~obs:_ ->
          let rng = Sim.Rng.create seed in
          (* Varied sizes fragment core, so placement failures exercise
             the compaction recovery too. *)
          let sizes = [| 500; 380; 620; 450 |] in
          let programs = Array.length sizes in
          let clock = Sim.Clock.create () in
          let core =
            Memstore.Level.make clock Memstore.Device.core ~name:"core" ~words:1_400
          in
          let backing =
            Memstore.Level.make clock Memstore.Device.drum ~name:"drum"
              ~words:(Array.fold_left ( + ) 0 sizes)
          in
          let model =
            Device.Model.create
              (Device.Model.config ~fault ~sched:Device.Sched.Fifo
                 Device.Geometry.atlas_drum)
          in
          let swapper =
            Swapping.Swapper.create
              {
                Swapping.Swapper.core;
                backing;
                placement = Freelist.Policy.First_fit;
                compact_on_failure = true;
                device = Some model;
              }
          in
          let ids =
            Array.init programs (fun i ->
                Swapping.Swapper.add_program swapper
                  ~name:(Printf.sprintf "prog%d" i)
                  ~size:(sizes.(i) - 8))
          in
          let rounds = if quick then 16 else 48 in
          let surfaced = ref 0 in
          for round = 1 to rounds do
            let p = Sim.Rng.int rng programs in
            let name = Sim.Rng.int rng (sizes.(p) - 9) in
            (* A failed swap-in leaves the program out; the next round is
               the retry (fresh fault rolls).  Writes dirty the image so
               the eventual swap-out exercises the write-back path. *)
            let r =
              if round land 1 = 0 then
                Swapping.Swapper.write_result swapper ids.(p) name 1L
              else
                Result.map
                  (fun (_ : int64) -> ())
                  (Swapping.Swapper.read_result swapper ids.(p) name)
            in
            match r with Ok () -> () | Error _ -> incr surfaced
          done;
          [
            ("swap_in_failures", Swapping.Swapper.swap_in_failures swapper);
            ("surfaced", !surfaced);
            ("mirror_writes", Swapping.Swapper.mirror_writes swapper);
            ("compactions", Swapping.Swapper.compactions swapper);
          ]);
    }

let multiprog_scenario ~quick =
  Resilience.Chaos.Device_faults
    {
      name = "multiprog-restart";
      run =
        (fun ~seed ~fault ~obs ->
          let refs_per_job = if quick then 120 else 400 in
          (* The model gets no sink: its io timestamps run ahead of the
             scheduler clock, and the scheduler's own events are the
             story here. *)
          let model =
            Device.Model.create
              (Device.Model.config ~fault ~sched:Device.Sched.Satf
                 Device.Geometry.atlas_drum)
          in
          let controller =
            Resilience.Controller.create
              (Resilience.Controller.config ~period_us:10_000 ())
          in
          let report =
            Dsas.Multiprog.run ~obs ~device:model ~max_restarts:2 ~controller
              ~frames:12
              ~policy:(Paging.Replacement.lru ())
              ~fetch_us:3_000
              (jobs_mix ~seed ~refs_per_job ())
          in
          [
            ("restarts", report.Dsas.Multiprog.restarts);
            ("jobs_failed", report.Dsas.Multiprog.jobs_failed);
            ("load_sheds", Resilience.Controller.sheds controller);
            ("load_admits", Resilience.Controller.admits controller);
          ]);
    }

let scenarios ?(quick = false) () =
  [
    demand_scenario ~name:"demand-mirror" ~recovery:Paging.Demand.Mirror ~quick;
    demand_scenario ~name:"demand-surface" ~recovery:Paging.Demand.Surface ~quick;
    swapper_scenario ~quick;
    multiprog_scenario ~quick;
  ]

(* --- printing --- *)

let run ?(quick = false) ?obs ?seed () =
  let rows = measure ~quick ?obs:(Some (Option.value obs ~default:Obs.Sink.null)) ?seed () in
  print_endline "== X9 (extension): failure semantics and load control ==";
  print_endline
    "(6 jobs x 16 pages over 16 shared frames on a faulty drum, Fail escalation;\n\
    \ terminal fetch failures abort-and-restart the job; the space-time\n\
    \ controller sheds the thrashing set and re-admits under hysteresis)\n";
  Metrics.Table.print
    ~headers:
      [ "error prob"; "controller"; "cpu util"; "elapsed (ms)"; "faults"; "restarts";
        "jobs failed"; "sheds"; "admits"; "injected"; "terminal" ]
    (List.map
       (fun r ->
         [
           Metrics.Table.fmt_float r.error_prob;
           r.policy;
           Metrics.Table.fmt_float r.cpu_utilization;
           string_of_int (r.elapsed_us / 1000);
           string_of_int r.total_faults;
           string_of_int r.restarts;
           string_of_int r.jobs_failed;
           string_of_int r.sheds;
           string_of_int r.admits;
           string_of_int r.injected;
           string_of_int r.failed;
         ])
       rows);
  print_endline
    "\n--- write-side fault accounting (demand engine, mirror recovery) ---\n";
  Metrics.Table.print
    ~headers:
      [ "write error prob"; "writebacks"; "write errors"; "write rolls skipped";
        "mirror fetches"; "terminal" ]
    (List.map
       (fun w ->
         [
           Metrics.Table.fmt_float w.write_error_prob;
           string_of_int w.writebacks;
           string_of_int w.write_injected;
           string_of_int w.write_rolls_skipped;
           string_of_int w.mirror_fetches;
           string_of_int w.terminal_failures;
         ])
       (measure_writes ~quick ?seed ()));
  print_endline
    "\n(write rolls skipped counts write attempts never at risk: nonzero exactly\n\
    \ when write faults are off, so injected-error arithmetic stays honest)"
