type outcome = {
  external_frag : float;
  holes : int;
  mean_search : float;
  placed : int;
  failures : int;
  largest_free : int;
  live_words : int;
  free_words : int;
  requested : int;
}

type row = { policy : string; mix : string; outcome : outcome }

type mix = Small_skewed | Bimodal

let mix_name = function Small_skewed -> "small-skewed" | Bimodal -> "bimodal 16/2048"

let serve ?(obs = Obs.Sink.null) ~words policy events =
  let mem = Memstore.Physical.create ~name:"core" ~words in
  let a = Freelist.Allocator.create ~obs mem ~base:0 ~len:words ~policy in
  let t =
    Workload.Alloc_stream.replay events
      ~alloc:(fun ~id:_ size -> Freelist.Allocator.alloc a size)
      ~free:(Freelist.Allocator.free a)
  in
  let sizes = Freelist.Allocator.free_block_sizes a in
  {
    external_frag = Metrics.Fragmentation.external_of_free_blocks sizes;
    holes = List.length sizes;
    mean_search = Metrics.Stats.mean (Freelist.Allocator.search_stats a);
    placed = t.placed;
    failures = t.unplaced;
    largest_free = Freelist.Allocator.largest_free a;
    live_words = Freelist.Allocator.live_words a;
    free_words = Freelist.Allocator.free_words a;
    requested = t.live_requested;
  }

let point ?obs ?seed ?(words = 1 lsl 16) ?(target_live = 400) ~steps ~mix policy =
  let size =
    match mix with
    | Small_skewed -> Workload.Alloc_stream.Geometric { mean = 40.; min_size = 1 }
    | Bimodal ->
      Workload.Alloc_stream.Bimodal { small = 16; large = 2048; large_fraction = 0.05 }
  in
  (* Same stream for every policy: same seed. *)
  let events =
    Workload.Alloc_stream.live_stream (Sim.Rng.derive ?override:seed 77) ~steps ~size
      ~target_live
  in
  serve ?obs ~words policy events

let measure ?(quick = false) ?(obs = Obs.Sink.null) ?seed () =
  let steps = if quick then 2_000 else 25_000 in
  (* A clockless allocator stamps events with its operation counter (at
     most one per stream event), so each policy's run spans [steps]. *)
  let sp = Obs.Sink.splice ?seed obs in
  List.concat_map
    (fun mix ->
      List.map
        (fun policy ->
          let config =
            Printf.sprintf "c2 mix=%s policy=%s" (mix_name mix)
              (Freelist.Policy.to_string policy)
          in
          let outcome = point ~obs:(Obs.Sink.next sp ~config) ?seed ~steps ~mix policy in
          Obs.Sink.advance sp steps;
          { policy = Freelist.Policy.to_string policy; mix = mix_name mix; outcome })
        Freelist.Policy.all_standard)
    [ Small_skewed; Bimodal ]

let run ?quick ?obs ?seed () =
  let rows = measure ?quick ?obs ?seed () in
  print_endline "== C2: placement strategies (variable unit of allocation) ==";
  print_endline "(same request stream to every policy; fixed 64K-word store)\n";
  Metrics.Table.print
    ~headers:[ "mix"; "policy"; "ext frag"; "holes"; "mean search"; "failures"; "largest hole" ]
    (List.map
       (fun { policy; mix; outcome = o } ->
         [
           mix;
           policy;
           Metrics.Table.fmt_pct o.external_frag;
           string_of_int o.holes;
           Metrics.Table.fmt_float o.mean_search;
           string_of_int o.failures;
           string_of_int o.largest_free;
         ])
       rows);
  print_newline ()
