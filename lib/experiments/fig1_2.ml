let page_size = 64

let pages = 8

let frames = 8

(* Build an engine and touch pages in an interleaved order so that
   consecutive pages land in non-consecutive frames. *)
let build () =
  let engine =
    Paging.Spec.build ~clock:(Sim.Clock.create ()) ~rng:(Sim.Rng.create 0)
      { Paging.Spec.e_page_size = page_size; e_frames = frames; e_pages = pages;
        e_device = Memstore.Device.drum; e_policy = Paging.Spec.Lru; e_tlb_slots = None;
        e_compute_us_per_ref = 1 }
  in
  (* A recognizable pattern per word of backing store. *)
  let backing = Memstore.Level.physical (Paging.Demand.backing engine) in
  for w = 0 to (pages * page_size) - 1 do
    Memstore.Physical.write backing w (Int64.of_int (w * 7))
  done;
  (* Scatter: 0, 4, 1, 5, 2, 6, 3, 7 claim frames in touch order. *)
  List.iter
    (fun p -> ignore (Paging.Demand.read engine (p * page_size)))
    [ 0; 4; 1; 5; 2; 6; 3; 7 ];
  engine

let mapping engine =
  List.init pages (fun p ->
      match Paging.Demand.frame_of engine ~page:p with
      | Some f -> (p, f)
      | None -> assert false)

let scattered_fraction () =
  let m = mapping (build ()) in
  let frame_of p = List.assoc p m in
  let adjacent_pairs = pages - 1 in
  let physically_adjacent =
    List.length
      (List.filter (fun p -> frame_of (p + 1) = frame_of p + 1) (List.init adjacent_pairs Fun.id))
  in
  1. -. (float_of_int physically_adjacent /. float_of_int adjacent_pairs)

let run ?(quick = false) ?obs:_ ?seed:_ () =
  ignore quick;
  let engine = build () in
  print_endline "== F1/F2: artificial contiguity via a table of block addresses ==";
  print_endline "contiguous names (pages) mapped onto scattered page frames:\n";
  Metrics.Table.print
    ~headers:[ "page (name bits)"; "frame (address bits)"; "core word of name 0" ]
    (List.map
       (fun (p, f) ->
         [ string_of_int p; string_of_int f; string_of_int (f * page_size) ])
       (mapping engine));
  (* Verify: a contiguous name sweep returns the backing pattern. *)
  let ok = ref true in
  for name = 0 to (pages * page_size) - 1 do
    if Paging.Demand.read engine name <> Int64.of_int (name * 7) then ok := false
  done;
  Printf.printf "\ncontiguous name sweep reads correct data: %b\n" !ok;
  Printf.printf "adjacent name pairs with non-adjacent frames: %s\n\n"
    (Metrics.Table.fmt_pct (scattered_fraction ()))
