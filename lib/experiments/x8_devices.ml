(* Sweep of the lib/device subsystem: device geometry x scheduling
   policy x channel count, measured against the paper's two headline
   numbers — C7's processor utilization (multiprogrammed fetch overlap)
   and F3's space-time waiting share — plus a transient-read-error
   table showing bounded retry and degraded-mode fallback. *)

type mp_row = {
  device : string;
  sched : string;
  channels : int;
  cpu_utilization : float;
  elapsed_us : int;
  mean_latency_us : float;
  mean_depth : float;
  max_depth : int;
}

type st_row = {
  config : string;
  waiting_fraction : float;
  fetch_latency_us : float;
  faults : int;
}

type fault_row = {
  error_prob : float;
  injected : int;
  retries : int;
  degraded : int;
  latency_us : float;
  run_faults : int;
  checksum : int64;
}

(* x8's own presets: its "fixed" is a flat 5 ms, not the drum-timed
   Device.Geometry.fixed. *)
let geometries =
  [
    ("fixed", Device.Geometry.fixed_us 5_000);
    ("drum", Device.Geometry.atlas_drum);
    ("disk", Device.Geometry.paper_disk);
  ]

let scheds = List.map (fun s -> (Device.Sched.name s, s)) Device.Sched.all

let preset name = List.find_opt (fun (n, _) -> n = String.lowercase_ascii name) geometries

(* --- C7-style: multiprogrammed utilization over a timed device --- *)

let jobs_mix ?seed ~refs_per_job () =
  let rng = Sim.Rng.derive ?override:seed 4242 in
  Workload.Job.mix rng ~jobs:6 ~refs_per_job ~pages_per_job:24 ~locality:0.9
    ~compute_us_per_ref:15

let run_multiprog ?(quick = false) ?seed ~device ~sched ~channels () =
  let refs_per_job = if quick then 300 else 1_500 in
  let device, geometry =
    match preset device with Some p -> p | None -> invalid_arg "X8_devices: unknown device"
  in
  let model = Device.Model.create (Device.Model.config ~sched ~channels geometry) in
  let report =
    Dsas.Multiprog.run ~device:model ~frames:32 ~policy:(Paging.Replacement.lru ())
      ~fetch_us:5_000
      (jobs_mix ?seed ~refs_per_job ())
  in
  let stats = Device.Model.stats model in
  {
    device;
    sched = Device.Sched.name sched;
    channels;
    cpu_utilization = report.Dsas.Multiprog.cpu_utilization;
    elapsed_us = report.Dsas.Multiprog.elapsed_us;
    mean_latency_us = stats.Device.Model.mean_read_latency_us;
    mean_depth = stats.Device.Model.mean_queue_depth;
    max_depth = stats.Device.Model.max_queue_depth;
  }

let measure_multiprog ?quick ?seed () =
  List.concat_map
    (fun (device, _) ->
      List.concat_map
        (fun sched ->
          List.map
            (fun channels -> run_multiprog ?quick ?seed ~device ~sched ~channels ())
            (if device = "fixed" then [ 1 ] else [ 1; 2 ]))
        (if device = "fixed" then [ Device.Sched.Fifo ] else Device.Sched.all))
    geometries

(* --- F3-style: the waiting share of the space-time product --- *)

let page_size = 256

let frames = 12

let st_trace ?seed ~refs () =
  let rng = Sim.Rng.derive ?override:seed 42 in
  let pages = 24 in
  let page_trace =
    Workload.Trace.working_set_phases rng ~length:refs ~extent:pages ~set_size:6
      ~phase_length:(refs / 8) ~locality:0.98
  in
  Array.map (fun p -> (p * page_size) + Sim.Rng.int rng page_size) page_trace

let demand_engine ?obs ?device () =
  Paging.Spec.build ?obs ?device ~clock:(Sim.Clock.create ()) ~rng:(Sim.Rng.create 0)
    { Paging.Spec.e_page_size = page_size; e_frames = frames; e_pages = 24;
      e_device = Memstore.Device.drum; e_policy = Paging.Spec.Lru; e_tlb_slots = None;
      e_compute_us_per_ref = 50 }

(* Run the trace with one write in eight: modified evictions then
   enqueue write-backs, which compete with later fetches — the traffic
   that separates the scheduling policies. *)
let run_trace engine trace =
  Array.iteri
    (fun i name ->
      if i land 7 = 0 then Paging.Demand.write engine name (Int64.of_int (name + 1))
      else ignore (Paging.Demand.read engine name))
    trace

let measure_spacetime ?(quick = false) ?(obs = Obs.Sink.null) ?seed () =
  let refs = if quick then 2_000 else 10_000 in
  let trace = st_trace ?seed ~refs () in
  let sp = Obs.Sink.splice ?seed obs in
  let one config device_of =
    let sink = Obs.Sink.next sp ~config:("x8 config=" ^ config) in
    let engine = demand_engine ~obs:sink ?device:(device_of sink) () in
    run_trace engine trace;
    Obs.Sink.advance sp (Sim.Clock.now (Paging.Demand.clock engine));
    let st = Paging.Demand.space_time engine in
    let latency =
      match Paging.Demand.device engine with
      | Some m -> (Device.Model.stats m).Device.Model.mean_read_latency_us
      | None ->
        float_of_int (Memstore.Device.transfer_us Memstore.Device.drum ~words:page_size)
    in
    {
      config;
      waiting_fraction = Metrics.Space_time.waiting_fraction st;
      fetch_latency_us = latency;
      faults = Paging.Demand.faults engine;
    }
  in
  let timed geometry sched sink =
    Some (Device.Model.create ~obs:sink (Device.Model.config ~sched geometry))
  in
  [
    one "flat (legacy)" (fun _ -> None);
    one "fixed/fifo" (timed (Device.Geometry.fixed Memstore.Device.drum) Device.Sched.Fifo);
    one "drum/fifo" (timed Device.Geometry.atlas_drum Device.Sched.Fifo);
    one "drum/satf" (timed Device.Geometry.atlas_drum Device.Sched.Satf);
    one "disk/fifo" (timed Device.Geometry.paper_disk Device.Sched.Fifo);
    one "disk/satf" (timed Device.Geometry.paper_disk Device.Sched.Satf);
  ]

(* --- fault injection: retries are timing-only --- *)

(* Sum of core after the run: identical contents regardless of injected
   errors is the "memory unchanged" claim made visible. *)
let core_checksum engine trace =
  Array.fold_left
    (fun acc name -> Int64.add acc (Paging.Demand.read engine name))
    0L trace

let measure_faults ?(quick = false) ?seed () =
  let refs = if quick then 1_000 else 4_000 in
  let trace = st_trace ?seed ~refs () in
  List.map
    (fun error_prob ->
      let fault =
        if error_prob > 0. then Some (Device.Fault.config ~read_error_prob:error_prob ())
        else None
      in
      let model =
        Device.Model.create
          (Device.Model.config ?fault ~sched:Device.Sched.Fifo Device.Geometry.atlas_drum)
      in
      let engine = demand_engine ~device:model () in
      run_trace engine trace;
      let stats = Device.Model.stats model in
      let run_faults = Paging.Demand.faults engine in
      let checksum = core_checksum engine trace in
      {
        error_prob;
        injected = stats.Device.Model.injected;
        retries = stats.Device.Model.retries;
        degraded = stats.Device.Model.degraded;
        latency_us = stats.Device.Model.mean_read_latency_us;
        run_faults;
        checksum;
      })
    [ 0.; 0.01; 0.1; 0.4 ]

(* --- presentation --- *)

let print_multiprog rows =
  print_endline "-- C7 lens: utilization over a timed device (6 jobs, 32 frames) --";
  Metrics.Table.print
    ~headers:
      [ "device"; "sched"; "ch"; "cpu util"; "mean fetch (us)"; "mean qdepth"; "max qdepth" ]
    (List.map
       (fun r ->
         [
           r.device;
           r.sched;
           string_of_int r.channels;
           Metrics.Table.fmt_pct r.cpu_utilization;
           Metrics.Table.fmt_float ~decimals:0 r.mean_latency_us;
           Metrics.Table.fmt_float r.mean_depth;
           string_of_int r.max_depth;
         ])
       rows)

let print_spacetime rows =
  print_endline "-- F3 lens: waiting share of the space-time product --";
  Metrics.Table.print
    ~headers:[ "device/sched"; "waiting %"; "mean fetch (us)"; "faults" ]
    (List.map
       (fun r ->
         [
           r.config;
           Metrics.Table.fmt_pct r.waiting_fraction;
           Metrics.Table.fmt_float ~decimals:0 r.fetch_latency_us;
           string_of_int r.faults;
         ])
       rows)

let print_faults rows =
  print_endline "-- transient read errors: bounded retry, degraded fallback --";
  Metrics.Table.print
    ~headers:
      [ "P(error)"; "injected"; "retries"; "degraded"; "mean fetch (us)"; "faults"; "core checksum" ]
    (List.map
       (fun r ->
         [
           Metrics.Table.fmt_float r.error_prob;
           string_of_int r.injected;
           string_of_int r.retries;
           string_of_int r.degraded;
           Metrics.Table.fmt_float ~decimals:0 r.latency_us;
           string_of_int r.run_faults;
           Int64.to_string r.checksum;
         ])
       rows)

let run ?quick ?obs ?seed () =
  print_endline "== X8d (extension): timed backing-store devices ==";
  print_endline
    "(drum = 16 sectors/16ms rotation; disk adds seeks; fixed = flat 5ms.\n\
    \ satf = shortest-access-time-first, the ATLAS sector queue)\n";
  print_multiprog (measure_multiprog ?quick ?seed ());
  print_newline ();
  print_spacetime (measure_spacetime ?quick ?obs ?seed ());
  print_newline ();
  print_faults (measure_faults ?quick ?seed ());
  print_endline
    "(identical fault counts and checksums down the error column: injected\n\
    \ errors cost revolutions, never data -- and satf beats fifo wherever\n\
    \ the queue is deeper than one request)\n"

(* One configuration, chosen from the command line: each name is
   parsed once, in any case. *)
let run_custom ?quick ~device ~sched ~channels () =
  match (preset device, Device.Sched.of_string sched) with
  | None, _ -> Error (Printf.sprintf "unknown device %S; valid: fixed, drum, disk" device)
  | _, Error e -> Error e
  | Some (device, _), Ok sched ->
    if channels < 1 then Error "channels must be >= 1"
    else begin
      let r = run_multiprog ?quick ~device ~sched ~channels () in
      print_endline "== X8d: one configuration ==";
      print_multiprog [ r ];
      Ok ()
    end
