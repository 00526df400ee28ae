type row = {
  allocator : string;
  pressure : string;
  placed : int;
  unplaced : int;
  mean_search : float;
  combines : int;
  final_holes : int;
  external_frag : float;
}

let words = 1 lsl 14

let stream rng ~steps ~fill =
  let mean_size = 48. in
  let target_live = int_of_float (fill *. float_of_int words /. mean_size) in
  Workload.Alloc_stream.live_stream rng ~steps
    ~size:(Workload.Alloc_stream.Geometric { mean = mean_size; min_size = 2 })
    ~target_live

let rice_row ~pressure events =
  let mem = Memstore.Physical.create ~name:"core" ~words in
  let c = Segmentation.Rice_chain.create mem ~base:0 ~len:words in
  let t =
    Workload.Alloc_stream.replay events
      ~alloc:(fun ~id payload -> Segmentation.Rice_chain.alloc c ~payload ~codeword:id)
      ~free:(Segmentation.Rice_chain.free c)
  in
  let holes = List.map snd (Segmentation.Rice_chain.chain_blocks c) in
  {
    allocator = "rice-chain";
    pressure;
    placed = t.placed;
    unplaced = t.unplaced;
    mean_search = Metrics.Stats.mean (Segmentation.Rice_chain.chain_search_stats c);
    combines = Segmentation.Rice_chain.combines c;
    final_holes = List.length holes;
    external_frag = Metrics.Fragmentation.external_of_free_blocks holes;
  }

let boundary_row ~pressure events =
  let o = C2_placement.serve ~words Freelist.Policy.First_fit events in
  {
    allocator = "boundary-tag first-fit";
    pressure;
    placed = o.placed;
    unplaced = o.failures;
    mean_search = o.mean_search;
    combines = 0;
    final_holes = o.holes;
    external_frag = o.external_frag;
  }

let measure ?(quick = false) ?seed () =
  let steps = if quick then 2_000 else 20_000 in
  List.concat_map
    (fun fill ->
      let pressure = Printf.sprintf "%.0f%% full" (100. *. fill) in
      let events = stream (Sim.Rng.derive ?override:seed 99) ~steps ~fill in
      [ rice_row ~pressure events; boundary_row ~pressure events ])
    [ 0.5; 0.8; 0.95 ]

let run ?quick ?obs:_ ?seed () =
  let rows = measure ?quick ?seed () in
  print_endline "== C6: Rice inactive-block chain vs immediate coalescing ==";
  print_endline "(same churn stream; chain combines only on demand)\n";
  Metrics.Table.print
    ~headers:
      [ "pressure"; "allocator"; "placed"; "unplaced"; "mean search"; "combines";
        "holes at end"; "ext frag" ]
    (List.map
       (fun r ->
         [
           r.pressure;
           r.allocator;
           string_of_int r.placed;
           string_of_int r.unplaced;
           Metrics.Table.fmt_float r.mean_search;
           string_of_int r.combines;
           string_of_int r.final_holes;
           Metrics.Table.fmt_pct r.external_frag;
         ])
       rows);
  print_newline ()
