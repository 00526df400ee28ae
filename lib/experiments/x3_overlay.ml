type row = {
  scheme : string;
  workload : string;
  fetch_operations : int;
  words_loaded : int;
  elapsed_us : int;
}

let page_size = 64

let pages_per_phase = 48

let total_pages = 128

let compute_us_per_ref = 5

(* A phased program; [density] controls how many of each phase's
   declared pages the references actually touch. *)
let program ~quick ~dense ?override seed =
  let refs_per_phase = if quick then 150 else 1_000 in
  let phases = if quick then 4 else 10 in
  let rng = Sim.Rng.derive ?override seed in
  let generated =
    Predictive.Phased.generate rng ~page_size ~phases ~refs_per_phase
      ~pages_per_phase:(if dense then pages_per_phase else 2)
      ~total_pages ~lead:0
  in
  (* The overlay plan declares the worst case either way. *)
  (generated, phases, refs_per_phase)

let drum = Memstore.Device.drum

let static_overlay ~workload (generated, phases, refs_per_phase) =
  ignore generated;
  (* Each phase: one batched transfer of the declared worst-case set,
     then compute with every access served from core. *)
  let batch_words = pages_per_phase * page_size in
  let batch_us = Memstore.Device.transfer_us drum ~words:batch_words in
  let access_us = Memstore.Device.word_access_us Memstore.Device.core in
  let per_phase = batch_us + (refs_per_phase * (compute_us_per_ref + access_us)) in
  {
    scheme = "static overlays";
    workload;
    fetch_operations = phases;
    words_loaded = phases * batch_words;
    elapsed_us = phases * per_phase;
  }

let demand_paging ~workload (generated, _, _) =
  let clock = Sim.Clock.create () in
  let engine =
    Paging.Spec.build ~clock ~rng:(Sim.Rng.create 0)
      { Paging.Spec.e_page_size = page_size;
        e_frames = pages_per_phase;  (* the same worst-case region *)
        e_pages = total_pages; e_device = drum; e_policy = Paging.Spec.Lru;
        e_tlb_slots = None; e_compute_us_per_ref = compute_us_per_ref }
  in
  Paging.Demand.run engine (Predictive.Directive.strip generated.Predictive.Phased.steps);
  {
    scheme = "demand paging";
    workload;
    fetch_operations = Paging.Demand.faults engine;
    words_loaded = Paging.Demand.faults engine * page_size;
    elapsed_us = Sim.Clock.now clock;
  }

let measure ?(quick = false) ?seed () =
  let dense = program ~quick ~dense:true ?override:seed 7 in
  let sparse = program ~quick ~dense:false ?override:seed 7 in
  [
    static_overlay ~workload:"dense phases" dense;
    demand_paging ~workload:"dense phases" dense;
    static_overlay ~workload:"sparse phases" sparse;
    demand_paging ~workload:"sparse phases" sparse;
  ]

let run ?quick ?obs:_ ?seed () =
  let rows = measure ?quick ?seed () in
  print_endline "== X3 (extension): preplanned overlays vs dynamic allocation ==";
  print_endline
    "(overlay plan loads the declared worst-case set per phase in one batch;\n\
    \ demand paging fetches only touched pages, one drum latency each)\n";
  Metrics.Table.print
    ~headers:[ "workload"; "scheme"; "fetches"; "words loaded"; "elapsed (us)" ]
    (List.map
       (fun r ->
         [
           r.workload;
           r.scheme;
           string_of_int r.fetch_operations;
           string_of_int r.words_loaded;
           string_of_int r.elapsed_us;
         ])
       rows);
  print_newline ()
