(* X10 (extension): finite-size scaling of fragmentation.

   The microscopic parameters of a steady-state allocation mix are held
   fixed (geometric object sizes, target occupancy, churn per object)
   while the store size M sweeps three decades.  Two finite-size laws
   are then fitted on log-log axes:

   - hole count grows as a clean sub-extensive power holes(M) ~ M^0.73
     (r^2 ~ 1.0): best fit prefers the smallest workable hole, so
     churn recycles existing holes and the untouched wilderness block
     absorbs growth that would otherwise mint new ones;
   - seed-to-seed fluctuation of external fragmentation averages over
     the O(M^0.73) holes, so its standard deviation decays near the
     central-limit rate, sigma(M) ~ M^(-0.4).

   The fitted exponents are the campaign's committed goldens: a change
   to allocator coalescing or the workload generator that bends either
   law shows up as an exponent shift, not just a level shift. *)

type row = {
  words : int;
  rep : int;
  live_words : int;
  external_frag : float;
  largest_free_share : float;
  holes : int;
  mean_search : float;
}

let default_mean_size = 64.

let default_occupancy = 0.5

let default_churn = 12

let target_live ~mean_size ~occupancy words =
  Stdlib.max 4 (int_of_float (float_of_int words *. occupancy /. mean_size))

let point ?seed ?(rep = 0) ?(mean_size = default_mean_size)
    ?(occupancy = default_occupancy) ?(churn = default_churn)
    ~policy ~words () =
  let rng = Sim.Rng.derive ?override:seed (1010 + (rep * 7919)) in
  let live = target_live ~mean_size ~occupancy words in
  let steps = churn * live in
  let events =
    Workload.Alloc_stream.live_stream rng ~steps
      ~size:(Workload.Alloc_stream.Geometric { mean = mean_size; min_size = 1 })
      ~target_live:live
  in
  let o = C2_placement.serve ~words policy events in
  {
    words;
    rep;
    live_words = o.live_words;
    external_frag = o.external_frag;
    largest_free_share =
      (if o.free_words = 0 then 0.
       else float_of_int o.largest_free /. float_of_int o.free_words);
    holes = o.holes;
    mean_search = o.mean_search;
  }

let sizes ~quick =
  if quick then [ 1_024; 8_192; 65_536 ]
  else [ 1_024; 4_096; 16_384; 65_536; 262_144; 1_048_576 ]

let reps ~quick = if quick then 2 else 5

let measure ?(quick = false) ?seed () =
  List.concat_map
    (fun words ->
      List.init (reps ~quick) (fun rep ->
          point ?seed ~rep ~policy:Freelist.Policy.Best_fit ~words ()))
    (sizes ~quick)

type fits = {
  holes_exponent : Metrics.Stats.fit option;  (** log holes vs log M *)
  sigma_exponent : Metrics.Stats.fit option;
      (** log stddev(external frag) vs log M *)
}

(* Per-size aggregation: mean hole count and the across-rep standard
   deviation of external fragmentation, both on log10 axes. *)
let fit_rows rows =
  let sizes = List.sort_uniq compare (List.map (fun r -> r.words) rows) in
  let agg stat_of f =
    List.filter_map
      (fun words ->
        let st = Metrics.Stats.create () in
        List.iter (fun r -> if r.words = words then Metrics.Stats.add st (f r)) rows;
        let v = stat_of st in
        if v > 0. then Some (log10 (float_of_int words), log10 v) else None)
      sizes
  in
  {
    holes_exponent =
      Metrics.Stats.linfit (agg Metrics.Stats.mean (fun r -> float_of_int r.holes));
    sigma_exponent =
      Metrics.Stats.linfit (agg Metrics.Stats.stddev (fun r -> r.external_frag));
  }

let run ?(quick = false) ?(obs = Obs.Sink.null) ?seed () =
  ignore obs;
  let rows = measure ~quick ?seed () in
  print_endline "== X10: finite-size scaling of fragmentation ==";
  print_endline
    "(fixed mix — geometric sizes, best fit, 50% occupancy — store size swept)\n";
  let sizes = List.sort_uniq compare (List.map (fun r -> r.words) rows) in
  Metrics.Table.print
    ~headers:
      [ "store (words)"; "live"; "holes"; "ext frag"; "sigma(ext frag)"; "largest share" ]
    (List.map
       (fun words ->
         let of_reps f =
           let st = Metrics.Stats.create () in
           List.iter (fun r -> if r.words = words then Metrics.Stats.add st (f r)) rows;
           st
         in
         let holes = of_reps (fun r -> float_of_int r.holes) in
         let frag = of_reps (fun r -> r.external_frag) in
         let share = of_reps (fun r -> r.largest_free_share) in
         let live = of_reps (fun r -> float_of_int r.live_words) in
         [
           string_of_int words;
           Printf.sprintf "%.0f" (Metrics.Stats.mean live);
           Printf.sprintf "%.1f" (Metrics.Stats.mean holes);
           Metrics.Table.fmt_pct (Metrics.Stats.mean frag);
           Printf.sprintf "%.4f" (Metrics.Stats.stddev frag);
           Printf.sprintf "%.3f" (Metrics.Stats.mean share);
         ])
       sizes);
  print_newline ();
  let fits = fit_rows rows in
  let show name = function
    | Some (f : Metrics.Stats.fit) ->
      Printf.printf "%-28s exponent %+.3f  (r^2 %.3f)\n" name f.slope f.r_square
    | None -> Printf.printf "%-28s (not enough points to fit)\n" name
  in
  show "holes ~ M^a:" fits.holes_exponent;
  show "sigma(ext frag) ~ M^a:" fits.sigma_exponent;
  print_newline ()
