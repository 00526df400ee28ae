type row = {
  discipline : string;
  claimed : int;
  live : int;
  wasted_fraction : float;
  detail : string;
}

let page_sizes = [ 64; 256; 1024; 4096 ]

let store_words = 1 lsl 17

let mix rng ~steps =
  Workload.Alloc_stream.live_stream rng ~steps
    ~size:(Workload.Alloc_stream.Geometric { mean = 90.; min_size = 1 })
    ~target_live:300

let point ?obs ?(words = store_words) ~rng ~steps policy =
  C2_placement.serve ?obs ~words policy (mix rng ~steps)

(* Claimed = live payloads + tag overhead; waste = claimed - requested,
   plus the shattering of what remains free. *)
let variable_row (o : C2_placement.outcome) =
  let claimed = store_words - o.free_words in
  {
    discipline = "variable (best-fit)";
    claimed;
    live = o.requested;
    wasted_fraction = float_of_int (claimed - o.requested) /. float_of_int claimed;
    detail =
      Printf.sprintf "external frag %s over %d holes"
        (Metrics.Table.fmt_pct o.external_frag) o.holes;
  }

let buddy_row events =
  let b = Freelist.Buddy.create ~words:store_words in
  ignore
    (Workload.Alloc_stream.replay events
       ~alloc:(fun ~id:_ size -> Freelist.Buddy.alloc b size)
       ~free:(Freelist.Buddy.free b));
  let claimed = Freelist.Buddy.live_granted b in
  let live = Freelist.Buddy.live_requested b in
  {
    discipline = "buddy";
    claimed;
    live;
    wasted_fraction =
      (if claimed = 0 then 0. else float_of_int (claimed - live) /. float_of_int claimed);
    detail = "power-of-two rounding";
  }

(* Paging grants every request; the token a free hands back is its size. *)
let paged_row events page_size =
  let internal = Metrics.Fragmentation.Internal.create ~page_size in
  ignore
    (Workload.Alloc_stream.replay events
       ~alloc:(fun ~id:_ size ->
         Metrics.Fragmentation.Internal.record internal ~requested:size;
         Some size)
       ~free:(fun size -> Metrics.Fragmentation.Internal.release internal ~requested:size));
  {
    discipline = Printf.sprintf "paged (%d-word frames)" page_size;
    claimed = Metrics.Fragmentation.Internal.granted_live internal;
    live = Metrics.Fragmentation.Internal.requested_live internal;
    wasted_fraction = Metrics.Fragmentation.Internal.waste_fraction internal;
    detail = "internal (within pages)";
  }

let measure ?(quick = false) ?seed () =
  let steps = if quick then 2_000 else 20_000 in
  (* Every discipline serves the same stream, drawn afresh from one site. *)
  let stream () = Sim.Rng.derive ?override:seed 2024 in
  let events = mix (stream ()) ~steps in
  variable_row (point ~rng:(stream ()) ~steps Freelist.Policy.Best_fit)
  :: buddy_row events
  :: List.map (paged_row events) page_sizes

let run ?quick ?obs:_ ?seed () =
  let rows = measure ?quick ?seed () in
  print_endline "== C1: fragmentation is obscured, not prevented, by paging ==";
  print_endline "(one allocation mix; waste as a fraction of storage claimed)\n";
  Metrics.Table.print
    ~headers:[ "discipline"; "claimed (words)"; "live (words)"; "wasted"; "where the waste lives" ]
    (List.map
       (fun r ->
         [
           r.discipline;
           string_of_int r.claimed;
           string_of_int r.live;
           Metrics.Table.fmt_pct r.wasted_fraction;
           r.detail;
         ])
       rows);
  print_newline ();
  print_string
    (Metrics.Chart.bars (List.map (fun r -> (r.discipline, 100. *. r.wasted_fraction)) rows));
  print_newline ()
