type row = {
  page_size : int;
  faults : int;
  elapsed_us : int;
  table_entries : int;
  internal_waste : int;
  combined_cost : float;
}

(* A population of objects (segment-sized pieces of a program) whose
   tails produce internal fragmentation. *)
let object_population ?(mean = 300.) rng =
  List.init 200 (fun _ ->
      Workload.Alloc_stream.sample_size rng
        (Workload.Alloc_stream.Geometric { mean; min_size = 1 }))

let measure ?(quick = false) ?seed () =
  let refs = if quick then 1_000 else 20_000 in
  let rng = Sim.Rng.derive ?override:seed 4242 in
  let objects = object_population (Sim.Rng.split rng) in
  let name_space_words = 1 lsl 17 in
  let trace =
    Workload.Trace.working_set_phases rng ~length:refs ~extent:name_space_words
      ~set_size:8_192 ~phase_length:(refs / 8) ~locality:0.95
  in
  List.map
    (fun page_size ->
      let system = Machines.M44.with_page_size page_size in
      let r =
        Dsas.System.run_linear system
          ~seed:(match seed with None -> 5 | Some s -> s lxor 5)
          trace
      in
      let table_entries = name_space_words / page_size in
      let waste = Machines.Multics.single_page_waste ~page:page_size ~object_words:objects in
      {
        page_size;
        faults = r.Dsas.System.faults;
        elapsed_us = (match r.Dsas.System.elapsed_us with Some e -> e | None -> 0);
        table_entries;
        internal_waste = waste;
        (* Normalize both cost terms to the worst case in the sweep so
           they are commensurable; the optimum is interior. *)
        combined_cost = 0.;
      })
    Machines.M44.page_size_variants
  |> fun rows ->
  let max_entries = List.fold_left (fun m r -> max m r.table_entries) 1 rows in
  let max_waste = List.fold_left (fun m r -> max m r.internal_waste) 1 rows in
  List.map
    (fun r ->
      {
        r with
        combined_cost =
          (float_of_int r.table_entries /. float_of_int max_entries)
          +. (float_of_int r.internal_waste /. float_of_int max_waste);
      })
    rows

let dual_rows ?seed () =
  let rng = Sim.Rng.derive ?override:seed 4242 in
  (* MULTICS's dual sizes pay off on multi-page segments: bodies get
     1024-word pages (few table entries), tails get 64-word pages
     (little waste). *)
  let objects = object_population ~mean:2_000. (Sim.Rng.split rng) in
  let uniform_entries page =
    List.fold_left (fun acc w -> acc + ((w + page - 1) / page)) 0 objects
  in
  let dual_entries =
    List.fold_left
      (fun acc w ->
        let body = w / 1024 and tail = w mod 1024 in
        acc + body + ((tail + 63) / 64))
      0 objects
  in
  ( "dual 64+1024 (MULTICS)",
    Machines.Multics.dual_page_waste ~object_words:objects,
    dual_entries )
  :: List.map
       (fun page ->
         ( Printf.sprintf "uniform %d" page,
           Machines.Multics.single_page_waste ~page ~object_words:objects,
           uniform_entries page ))
       [ 64; 256; 1024; 4096 ]

type operational_row = {
  scheme : string;
  faults : int;
  core_budget : int;
  resident_utilization : float;
  table_cost : int;
}

(* A mixed segment population and a locality-bearing (segment, offset)
   reference string over it. *)
let segment_workload ~quick rng =
  let segments =
    Array.init 40 (fun i ->
        if i mod 10 = 0 then 3_000 + Sim.Rng.int rng 2_000 else 20 + Sim.Rng.int rng 200)
  in
  let refs = if quick then 4_000 else 30_000 in
  let popularity = Workload.Trace.zipf rng ~length:refs ~extent:(Array.length segments) ~skew:0.9 in
  let pairs =
    Array.map
      (fun s ->
        let region = max 16 (segments.(s) / 4) in
        let base = Sim.Rng.int rng (segments.(s) - region + 1) in
        (s, base + Sim.Rng.int rng region))
      popularity
  in
  (segments, pairs)

let table_entries_for ~small ~large segments =
  Array.fold_left
    (fun acc len ->
      let body = len / large in
      let tail = len - (body * large) in
      acc + body + ((tail + small - 1) / small))
    0 segments

let measure_operational ?(quick = false) ?seed () =
  let rng = Sim.Rng.derive ?override:seed 808 in
  let segments, pairs = segment_workload ~quick rng in
  let budget = 16_384 in
  let dual =
    let engine =
      Segmentation.Dual_pager.create
        {
          Segmentation.Dual_pager.small_page = 64;
          large_page = 1024;
          small_frames = 128;  (* 8K words *)
          large_frames = 8;  (* 8K words *)
        }
        ~segments
    in
    Array.iter
      (fun (segment, offset) ->
        Segmentation.Dual_pager.touch engine ~segment ~offset ~write:false)
      pairs;
    {
      scheme = "dual 64+1024 (operational)";
      faults = Segmentation.Dual_pager.faults engine;
      core_budget = Segmentation.Dual_pager.core_words engine;
      resident_utilization =
        (let held = Segmentation.Dual_pager.resident_words engine in
         if held = 0 then 0.
         else
           float_of_int (Segmentation.Dual_pager.resident_useful_words engine)
           /. float_of_int held);
      table_cost = table_entries_for ~small:64 ~large:1024 segments;
    }
  in
  let uniform page =
    let engine =
      Segmentation.Two_level.create
        {
          Segmentation.Two_level.page_size = page;
          frames = budget / page;
          tlb = None;
          policy = Paging.Replacement.lru ();
        }
        ~segments
    in
    Array.iter
      (fun (segment, offset) ->
        Segmentation.Two_level.touch engine ~segment ~offset ~write:false)
      pairs;
    (* Useful fraction of a full pool: mean useful words of the pages the
       segments can offer per frame at this size. *)
    let utilization =
      let useful = ref 0 and held = ref 0 in
      (* Approximate: the resident set is dominated by hot segments;
         report the population-wide per-page utilisation instead. *)
      Array.iter
        (fun len ->
          let pages = (len + page - 1) / page in
          useful := !useful + len;
          held := !held + (pages * page))
        segments;
      float_of_int !useful /. float_of_int !held
    in
    {
      scheme = Printf.sprintf "uniform %d" page;
      faults = Segmentation.Two_level.faults engine;
      core_budget = budget;
      resident_utilization = utilization;
      table_cost = table_entries_for ~small:page ~large:page segments;
    }
  in
  [ dual; uniform 64; uniform 1024 ]

let run ?quick ?obs:_ ?seed () =
  let rows = measure ?quick ?seed () in
  print_endline "== C8: choosing the page size ==";
  print_endline "(M44 page-size sweep: small pages cost table overhead, large pages waste space)\n";
  Metrics.Table.print
    ~headers:
      [ "page size"; "faults"; "elapsed (us)"; "table entries"; "internal waste (words)";
        "overhead+waste (norm.)" ]
    (List.map
       (fun r ->
         [
           string_of_int r.page_size;
           string_of_int r.faults;
           string_of_int r.elapsed_us;
           string_of_int r.table_entries;
           string_of_int r.internal_waste;
           Metrics.Table.fmt_float r.combined_cost;
         ])
       rows);
  print_endline "\n--- MULTICS dual page size: waste and table cost on multi-page segments ---\n";
  Metrics.Table.print ~headers:[ "scheme"; "wasted words"; "table entries" ]
    (List.map
       (fun (name, waste, entries) ->
         [ name; string_of_int waste; string_of_int entries ])
       (dual_rows ?seed ()));
  print_endline "\n--- the dual mechanism, operational (same 16K-word core budget) ---\n";
  Metrics.Table.print
    ~headers:[ "scheme"; "faults"; "core budget"; "resident utilization"; "table entries" ]
    (List.map
       (fun r ->
         [
           r.scheme;
           string_of_int r.faults;
           string_of_int r.core_budget;
           Metrics.Table.fmt_pct r.resident_utilization;
           string_of_int r.table_cost;
         ])
       (measure_operational ?quick ?seed ()));
  print_newline ()
