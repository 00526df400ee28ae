type row = {
  variant : string;
  faults : int;
  prefetches : int;
  elapsed_us : int;
  waiting_fraction : float;
}

let page_size = 64

let frames = 12

let total_pages = 48

let make_engine () =
  Paging.Spec.build ~clock:(Sim.Clock.create ()) ~rng:(Sim.Rng.create 0)
    { Paging.Spec.e_page_size = page_size; e_frames = frames; e_pages = total_pages;
      e_device = Memstore.Device.drum; e_policy = Paging.Spec.Lru; e_tlb_slots = None;
      e_compute_us_per_ref = 20 }

let stats variant engine =
  {
    variant;
    faults = Paging.Demand.faults engine;
    prefetches = Paging.Demand.prefetches engine;
    elapsed_us = Sim.Clock.now (Paging.Demand.clock engine);
    waiting_fraction = Metrics.Space_time.waiting_fraction (Paging.Demand.space_time engine);
  }

let measure ?(quick = false) ?seed () =
  let refs_per_phase = if quick then 100 else 600 in
  let phases = if quick then 4 else 12 in
  let program lead =
    Predictive.Phased.generate (Sim.Rng.derive ?override:seed 31) ~page_size ~phases ~refs_per_phase
      ~pages_per_phase:6 ~total_pages ~lead
  in
  (* The reference string is identical for every lead (same seed), so
     the demand-only baseline is computed once from lead=0's strip. *)
  let baseline =
    let engine = make_engine () in
    Paging.Demand.run engine (Predictive.Directive.strip (program 0).Predictive.Phased.steps);
    stats "demand only" engine
  in
  let leads = if quick then [ 50 ] else [ 10; 50; 150; 300 ] in
  baseline
  :: List.map
       (fun lead ->
         let engine = make_engine () in
         Predictive.Directive.run_annotated engine (program lead).Predictive.Phased.steps;
         stats (Printf.sprintf "advice, lead=%d refs" lead) engine)
       leads

let run ?quick ?obs:_ ?seed () =
  let rows = measure ?quick ?seed () in
  print_endline "== C4: predictive information vs pure demand fetch ==";
  print_endline "(phased program; will-need issued before each phase switch)\n";
  Metrics.Table.print
    ~headers:[ "variant"; "demand faults"; "prefetches"; "elapsed (us)"; "waiting ST" ]
    (List.map
       (fun r ->
         [
           r.variant;
           string_of_int r.faults;
           string_of_int r.prefetches;
           string_of_int r.elapsed_us;
           Metrics.Table.fmt_pct r.waiting_fraction;
         ])
       rows);
  print_newline ();
  print_string
    (Metrics.Chart.bars (List.map (fun r -> (r.variant, float_of_int r.elapsed_us)) rows));
  print_newline ()
