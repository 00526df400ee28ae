type row = {
  system : string;
  faults : int;
  words_transferred : int;
  elapsed_us : int;
  waste : string;
}

let core_words = 8192

(* Segment sizes like a compiled ALGOL program: many small procedure
   segments, a few large data segments. *)
let segment_sizes rng =
  Array.init 64 (fun i ->
      if i mod 16 = 0 then 512 + Sim.Rng.int rng 512 else 16 + Sim.Rng.int rng 112)

let workload ~quick rng segments =
  let refs = if quick then 3_000 else 30_000 in
  let n = Array.length segments in
  (* Working-set locality over segments: phases of 8 hot segments. *)
  let hot = ref (Array.init 8 (fun i -> i)) in
  Array.init refs (fun i ->
      if i mod (refs / 10) = 0 then
        hot := Array.init 8 (fun _ -> Sim.Rng.int rng n);
      let s = if Sim.Rng.float rng 1. < 0.95 then Sim.Rng.pick rng !hot else Sim.Rng.int rng n in
      (s, Sim.Rng.int rng segments.(s)))

let base_system name mechanism =
  {
    Dsas.System.name;
    characteristics = Namespace.Characteristics.recommended;
    core_words;
    core_device = Memstore.Device.core;
    backing_words = 1 lsl 16;
    backing_device = Memstore.Device.drum;
    mechanism;
    compute_us_per_ref = 2;
  }

let segment_machine =
  base_system "segment-unit (B5000-style)"
    (Dsas.System.Segmented
       {
         placement = Freelist.Policy.Best_fit;
         replacement = Segmentation.Segment_store.Cyclic;
         max_segment = Some 1024;
       })

let page_machine page_size =
  base_system
    (Printf.sprintf "paged %d (ATLAS-style)" page_size)
    (Dsas.System.Paged
       {
         page_size;
         frames = core_words / page_size;
         policy = Paging.Spec.Lru;
         tlb_capacity = core_words / page_size;
       })

let measure ?(quick = false) ?seed () =
  let rng = Sim.Rng.derive ?override:seed 808 in
  let segments = segment_sizes rng in
  let refs = workload ~quick rng segments in
  let row_of_report (r : Dsas.System.report) ~words_per_fault ~waste =
    {
      system = r.Dsas.System.system;
      faults = r.Dsas.System.faults;
      words_transferred = words_per_fault;
      elapsed_us = (match r.Dsas.System.elapsed_us with Some e -> e | None -> 0);
      waste;
    }
  in
  let seg_report = Dsas.System.run_segmented segment_machine ~segments refs in
  let mean_seg = Array.fold_left ( + ) 0 segments / Array.length segments in
  let seg_row =
    row_of_report seg_report
      ~words_per_fault:(seg_report.Dsas.System.faults * mean_seg)
      ~waste:
        (Printf.sprintf "external frag %s"
           (match seg_report.Dsas.System.external_fragmentation with
            | Some f -> Metrics.Table.fmt_pct f
            | None -> "-"))
  in
  let page_rows =
    List.map
      (fun page_size ->
        let r = Dsas.System.run_segmented (page_machine page_size) ~segments refs in
        let internal =
          Array.fold_left
            (fun acc len -> acc + ((len + page_size - 1) / page_size * page_size) - len)
            0 segments
        in
        row_of_report r
          ~words_per_fault:(r.Dsas.System.faults * page_size)
          ~waste:
            (Printf.sprintf "internal %d words if all live" internal))
      [ 128; 512 ]
  in
  seg_row :: page_rows

let run ?quick ?obs:_ ?seed () =
  let rows = measure ?quick ?seed () in
  print_endline "== C5: unit of allocation — whole segments vs page frames ==";
  print_endline "(same segment-structured workload, same core size)\n";
  Metrics.Table.print
    ~headers:[ "system"; "faults"; "~words fetched"; "elapsed (us)"; "waste" ]
    (List.map
       (fun r ->
         [
           r.system;
           string_of_int r.faults;
           string_of_int r.words_transferred;
           string_of_int r.elapsed_us;
           r.waste;
         ])
       rows);
  print_newline ()
