type row = {
  device : string;
  fetch_us : int;
  active : float;
  waiting : float;
  waiting_fraction : float;
  profile : string;  (* the Fig. 3 silhouette for this run *)
  faults : int;
  refs : int;
  elapsed_us : int;
}

let page_size = 256

let pages = 24

(* Fetch-speed sweep: from core-to-core speeds through drum to disk. *)
let devices =
  [
    Memstore.Device.custom ~label:"fast-drum" ~latency_us:1_000 ~word_ns:2_000;
    Memstore.Device.drum;
    Memstore.Device.custom ~label:"slow-drum" ~latency_us:20_000 ~word_ns:8_000;
    Memstore.Device.disk;
  ]

let point ?obs ?seed ?(frames = 12) ?(policy = Paging.Spec.Lru) ~refs device =
  let rng = Sim.Rng.derive ?override:seed 42 in
  (* Page-grained phases: each phase works a 6-page set that fits in
     core, so faults cluster at phase changes — the bursts the figure
     shades. *)
  let page_trace =
    Workload.Trace.working_set_phases rng ~length:refs ~extent:pages ~set_size:6
      ~phase_length:(refs / 8) ~locality:0.98
  in
  let trace = Array.map (fun p -> (p * page_size) + Sim.Rng.int rng page_size) page_trace in
  let clock = Sim.Clock.create () in
  let engine =
    Paging.Spec.build ?obs ~clock ~rng:(Sim.Rng.derive ?override:seed 9)
      ~trace:(Workload.Trace.to_pages ~page_size trace)
      { Paging.Spec.e_page_size = page_size; e_frames = frames; e_pages = pages;
        e_device = device; e_policy = policy; e_tlb_slots = None;
        e_compute_us_per_ref = 50 }
  in
  Paging.Demand.run engine trace;
  let st = Paging.Demand.space_time engine in
  {
    device = device.Memstore.Device.label;
    fetch_us = Memstore.Device.transfer_us device ~words:page_size;
    active = Metrics.Space_time.active st;
    waiting = Metrics.Space_time.waiting st;
    waiting_fraction = Metrics.Space_time.waiting_fraction st;
    profile = Metrics.Timeline.render ~width:64 ~height:8 (Paging.Demand.timeline engine);
    faults = Paging.Demand.faults engine;
    refs = Paging.Demand.refs engine;
    elapsed_us = Sim.Clock.now clock;
  }

let measure ?(quick = false) ?(obs = Obs.Sink.null) ?seed () =
  let refs = if quick then 2_000 else 20_000 in
  (* Each device run starts a fresh clock and spans its elapsed time. *)
  let sp = Obs.Sink.splice ?seed obs in
  List.map
    (fun device ->
      let config = Printf.sprintf "fig3 device=%s" device.Memstore.Device.label in
      let row = point ~obs:(Obs.Sink.next sp ~config) ?seed ~refs device in
      Obs.Sink.advance sp row.elapsed_us;
      row)
    devices

let run ?quick ?obs ?seed () =
  let rows = measure ?quick ?obs ?seed () in
  print_endline "== F3: space-time product under demand paging ==";
  print_endline "(space occupied while awaiting pages vs while executing)\n";
  Metrics.Table.print
    ~headers:[ "backing store"; "page fetch (us)"; "active ST (word-us)"; "waiting ST"; "waiting %" ]
    (List.map
       (fun r ->
         [
           r.device;
           string_of_int r.fetch_us;
           Printf.sprintf "%.3g" r.active;
           Printf.sprintf "%.3g" r.waiting;
           Metrics.Table.fmt_pct r.waiting_fraction;
         ])
       rows);
  print_newline ();
  print_string
    (Metrics.Chart.stacked_bars ~legend:("active space-time", "waiting space-time")
       (List.map (fun r -> (r.device, r.active, r.waiting)) rows));
  (* The figure itself, for the slowest and fastest stores. *)
  (match rows with
   | fastest :: _ ->
     Printf.printf "\ntime profile, %s backing store:\n%s" fastest.device fastest.profile
   | [] -> ());
  (match List.rev rows with
   | slowest :: _ ->
     Printf.printf "\ntime profile, %s backing store:\n%s" slowest.device slowest.profile
   | [] -> ());
  print_newline ()
