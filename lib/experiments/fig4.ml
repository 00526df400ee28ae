type row = {
  tlb_capacity : int;
  hit_ratio : float;
  map_accesses_per_ref : float;
  effective_access_us : float;
  overhead_vs_raw : float;
}

let word_us = 2

let capacities = [ 0; 1; 2; 4; 8; 9; 16; 24; 44; 64 ]

(* A program over a handful of segments with strong locality, like the
   360/67's packed program segments. *)
let workload ~quick rng =
  let refs = if quick then 3_000 else 30_000 in
  let segments = [| 4096; 2048; 1024; 8192; 512; 4096 |] in
  let seg_choice =
    Workload.Trace.zipf rng ~length:refs ~extent:(Array.length segments) ~skew:1.0
  in
  let pair s =
    (* Locality within the segment: a small working region of it. *)
    let region = max 64 (segments.(s) / 8) in
    (s, Sim.Rng.int rng region)
  in
  (segments, Array.map pair seg_choice)

let measure ?(quick = false) ?seed () =
  let one capacity =
    let rng = Sim.Rng.derive ?override:seed 1234 in
    let segments, refs = workload ~quick rng in
    let tlb =
      if capacity = 0 then None
      else Some (Paging.Tlb.create ~capacity Paging.Tlb.Lru_replacement)
    in
    let engine =
      Segmentation.Two_level.create
        {
          Segmentation.Two_level.page_size = 512;
          frames = 64;
          tlb;
          policy = Paging.Replacement.lru ();
        }
        ~segments
    in
    Segmentation.Two_level.run_segmented engine refs;
    let n = float_of_int (Segmentation.Two_level.refs engine) in
    let effective = Segmentation.Two_level.effective_access_us engine ~word_us in
    {
      tlb_capacity = capacity;
      hit_ratio =
        (match Segmentation.Two_level.tlb engine with
         | Some t -> Paging.Tlb.hit_ratio t
         | None -> 0.);
      map_accesses_per_ref = float_of_int (Segmentation.Two_level.map_accesses engine) /. n;
      effective_access_us = effective;
      overhead_vs_raw = effective /. float_of_int word_us;
    }
  in
  List.map one capacities

let run ?quick ?obs:_ ?seed () =
  let rows = measure ?quick ?seed () in
  print_endline "== F4: two-level mapping overhead vs associative memory size ==";
  print_endline "(segment table + page table walked on every associative miss)\n";
  Metrics.Table.print
    ~headers:[ "assoc. memory"; "hit ratio"; "map accesses/ref"; "effective access (us)"; "x raw access" ]
    (List.map
       (fun r ->
         [
           (if r.tlb_capacity = 0 then "none" else string_of_int r.tlb_capacity);
           Metrics.Table.fmt_pct r.hit_ratio;
           Metrics.Table.fmt_float r.map_accesses_per_ref;
           Metrics.Table.fmt_float r.effective_access_us;
           Metrics.Table.fmt_float r.overhead_vs_raw;
         ])
       rows);
  print_newline ();
  print_string
    (Metrics.Chart.series ~x_label:"associative memory capacity" ~y_label:"effective access (us)"
       [
         ( "effective access time",
           List.map (fun r -> (float_of_int r.tlb_capacity, r.effective_access_us)) rows );
       ]);
  print_newline ()
