type mechanism =
  | Paged of {
      page_size : int;
      frames : int;
      policy : Paging.Spec.t;
      tlb_capacity : int;
    }
  | Segmented of {
      placement : Freelist.Policy.t;
      replacement : Segmentation.Segment_store.replacement;
      max_segment : int option;
    }
  | Segmented_paged of {
      page_size : int;
      frames : int;
      policy : Paging.Spec.t;
      tlb_capacity : int;
    }

type t = {
  name : string;
  characteristics : Namespace.Characteristics.t;
  core_words : int;
  core_device : Memstore.Device.t;
  backing_words : int;
  backing_device : Memstore.Device.t;
  mechanism : mechanism;
  compute_us_per_ref : int;
}

type report = {
  system : string;
  refs : int;
  faults : int;
  writebacks : int;
  elapsed_us : int option;
  space_time_waiting_fraction : float option;
  tlb_hit_ratio : float option;
  map_accesses : int option;
  external_fragmentation : float option;
}

let report_headers =
  [ "system"; "refs"; "faults"; "writebacks"; "elapsed(us)"; "ST waiting"; "TLB hits";
    "map accesses"; "ext frag" ]

let opt_cell f = function None -> "-" | Some v -> f v

let report_rows reports =
  let row r =
    [
      r.system;
      string_of_int r.refs;
      string_of_int r.faults;
      string_of_int r.writebacks;
      opt_cell string_of_int r.elapsed_us;
      opt_cell Metrics.Table.fmt_pct r.space_time_waiting_fraction;
      opt_cell Metrics.Table.fmt_pct r.tlb_hit_ratio;
      opt_cell string_of_int r.map_accesses;
      opt_cell Metrics.Table.fmt_pct r.external_fragmentation;
    ]
  in
  List.map row reports

let make_tlb capacity =
  if capacity <= 0 then None
  else Some (Paging.Tlb.create ~capacity Paging.Tlb.Lru_replacement)

let ceil_div a b = (a + b - 1) / b

(* Build a fresh timed paging engine sized for [pages] pages of name
   space under this system's devices. *)
let paged_engine t ~obs ~page_size ~frames ~policy_spec ~tlb_capacity ~pages ~page_trace
    ~seed =
  let clock = Sim.Clock.create () in
  let rng = Sim.Rng.create seed in
  let core =
    Memstore.Level.make clock t.core_device ~name:"core"
      ~words:(max t.core_words (frames * page_size))
  in
  let backing =
    Memstore.Level.make clock t.backing_device ~name:"backing"
      ~words:(max t.backing_words (pages * page_size))
  in
  let policy = Paging.Spec.instantiate policy_spec ~rng ~trace:page_trace in
  Paging.Demand.create ~obs
    {
      Paging.Demand.page_size;
      frames;
      pages;
      core;
      backing;
      policy;
      tlb = make_tlb tlb_capacity;
      compute_us_per_ref = t.compute_us_per_ref;
    }

let paged_report t engine =
  {
    system = t.name;
    refs = Paging.Demand.refs engine;
    faults = Paging.Demand.faults engine;
    writebacks = Paging.Demand.writebacks engine;
    elapsed_us = Some (Sim.Clock.now (Paging.Demand.clock engine));
    space_time_waiting_fraction =
      Some (Metrics.Space_time.waiting_fraction (Paging.Demand.space_time engine));
    tlb_hit_ratio = Option.map Paging.Tlb.hit_ratio (Paging.Demand.tlb engine);
    map_accesses = None;
    external_fragmentation = None;
  }

let segment_store t ~obs ~placement ~replacement ~max_segment ~total_words =
  let clock = Sim.Clock.create () in
  let core = Memstore.Level.make clock t.core_device ~name:"core" ~words:t.core_words in
  let backing =
    Memstore.Level.make clock t.backing_device ~name:"backing"
      ~words:(max t.backing_words (2 * total_words))
  in
  ( Segmentation.Segment_store.create ~obs
      { Segmentation.Segment_store.core; backing; placement; replacement; max_segment },
    clock )

let segmented_report t store clock ~refs =
  {
    system = t.name;
    refs;
    faults = Segmentation.Segment_store.segment_faults store;
    writebacks = Segmentation.Segment_store.writebacks store;
    elapsed_us = Some (Sim.Clock.now clock);
    space_time_waiting_fraction =
      Some
        (Metrics.Space_time.waiting_fraction
           (Segmentation.Segment_store.space_time store));
    tlb_hit_ratio = None;
    map_accesses = None;
    external_fragmentation = Some (Segmentation.Segment_store.external_fragmentation store);
  }

let two_level_engine ~page_size ~frames ~policy_spec ~tlb_capacity ~seed ~segments =
  let rng = Sim.Rng.create seed in
  Segmentation.Two_level.create
    {
      Segmentation.Two_level.page_size;
      frames;
      tlb = make_tlb tlb_capacity;
      policy = Paging.Spec.instantiate policy_spec ~rng ~trace:None;
    }
    ~segments

let two_level_report t engine =
  {
    system = t.name;
    refs = Segmentation.Two_level.refs engine;
    faults = Segmentation.Two_level.faults engine;
    writebacks = 0;
    elapsed_us = None;
    space_time_waiting_fraction = None;
    tlb_hit_ratio = Option.map Paging.Tlb.hit_ratio (Segmentation.Two_level.tlb engine);
    map_accesses = Some (Segmentation.Two_level.map_accesses engine);
    external_fragmentation = None;
  }

(* Chop a linear name space into equal segments, the way a B5000 compiler
   handles structures larger than the maximum segment. *)
let chop ~chunk trace =
  let extent = max 1 (Workload.Trace.extent trace) in
  let segments = Array.make (ceil_div extent chunk) chunk in
  let refs = Array.map (fun addr -> (addr / chunk, addr mod chunk)) trace in
  (segments, refs)

let default_chunk = 1 lsl 18

let rec run_linear t ?(seed = 1) ?(obs = Obs.Sink.null) trace =
  match t.mechanism with
  | Paged { page_size; frames; policy; tlb_capacity } ->
    let pages = max 1 (ceil_div (Workload.Trace.extent trace) page_size) in
    let page_trace = Some (Workload.Trace.to_pages ~page_size trace) in
    let engine =
      paged_engine t ~obs ~page_size ~frames ~policy_spec:policy ~tlb_capacity ~pages
        ~page_trace ~seed
    in
    Paging.Demand.run engine trace;
    paged_report t engine
  | Segmented { max_segment; _ } ->
    (* Compilers segmented at the level of procedures and blocks; chop
       the linear space into segments of at most 1024 words, the B5000's
       actual limit, rather than a machine's theoretical maximum. *)
    let chunk = match max_segment with Some m -> min m 1024 | None -> 1024 in
    let segments, refs = chop ~chunk trace in
    run_segmented t ~seed ~obs ~segments refs
  | Segmented_paged _ ->
    let segments, refs = chop ~chunk:default_chunk trace in
    run_segmented t ~seed ~obs ~segments refs

and run_segmented t ?(seed = 1) ?(obs = Obs.Sink.null) ~segments refs =
  match t.mechanism with
  | Paged { page_size; frames; policy; tlb_capacity } ->
    (* Segments packed contiguously into the linear name space: address
       arithmetic runs across segment boundaries unchecked. *)
    let bases = Array.make (Array.length segments) 0 in
    let total = ref 0 in
    Array.iteri
      (fun i len ->
        bases.(i) <- !total;
        total := !total + len)
      segments;
    let word_trace = Array.map (fun (s, off) -> bases.(s) + off) refs in
    let pages = max 1 (ceil_div !total page_size) in
    let engine =
      paged_engine t ~obs ~page_size ~frames ~policy_spec:policy ~tlb_capacity ~pages
        ~page_trace:(Some (Workload.Trace.to_pages ~page_size word_trace))
        ~seed
    in
    Paging.Demand.run engine word_trace;
    paged_report t engine
  | Segmented { placement; replacement; max_segment } ->
    let total_words = Array.fold_left ( + ) 0 segments in
    let store, clock =
      segment_store t ~obs ~placement ~replacement ~max_segment ~total_words
    in
    let ids =
      Array.map (fun len -> Segmentation.Segment_store.define store ~length:len ()) segments
    in
    Array.iter
      (fun (s, off) ->
        let (_ : int64) = Segmentation.Segment_store.read store ids.(s) off in
        ())
      refs;
    segmented_report t store clock ~refs:(Array.length refs)
  | Segmented_paged { page_size; frames; policy; tlb_capacity } ->
    let engine =
      two_level_engine ~page_size ~frames ~policy_spec:policy ~tlb_capacity ~seed ~segments
    in
    Array.iter
      (fun (segment, offset) -> Segmentation.Two_level.touch engine ~segment ~offset ~write:false)
      refs;
    two_level_report t engine

let run_annotated t ?(seed = 1) ?(obs = Obs.Sink.null) steps =
  match t.mechanism with
  | Paged { page_size; frames; policy; tlb_capacity } ->
    let trace = Predictive.Directive.strip steps in
    let pages = max 1 (ceil_div (Workload.Trace.extent trace) page_size) in
    let engine =
      paged_engine t ~obs ~page_size ~frames ~policy_spec:policy ~tlb_capacity ~pages
        ~page_trace:(Some (Workload.Trace.to_pages ~page_size trace))
        ~seed
    in
    Predictive.Directive.run_annotated engine steps;
    paged_report t engine
  | Segmented _ | Segmented_paged _ ->
    invalid_arg "System.run_annotated: only paged systems accept page advice"
