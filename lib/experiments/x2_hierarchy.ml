type row = {
  rule : string;
  fast_hit_ratio : float;
  promotions : int;
  drum_faults : int;
  effective_access_us : float;
}

let rules =
  [
    ("never (bulk only)", Paging.Hierarchy.Never);
    ("promote always", Paging.Hierarchy.Always);
    ("promote after 2", Paging.Hierarchy.After 2);
    ("promote after 4", Paging.Hierarchy.After 4);
    ("promote after 8", Paging.Hierarchy.After 8);
  ]

let measure ?(quick = false) ?seed () =
  let refs = if quick then 5_000 else 50_000 in
  let rng = Sim.Rng.derive ?override:seed 616 in
  (* Zipf popularity: a few hot pages worth promoting, a long cold
     tail not worth it. *)
  let trace = Workload.Trace.zipf rng ~length:refs ~extent:256 ~skew:1.1 in
  List.map
    (fun (rule, promotion) ->
      let h =
        Paging.Hierarchy.create
          {
            Paging.Hierarchy.fast_frames = 16;
            bulk_frames = 96;
            fast_us = 1;
            bulk_us = 8;
            fetch_us = 10_000;
            promotion;
          }
      in
      Paging.Hierarchy.run h trace;
      {
        rule;
        fast_hit_ratio =
          float_of_int (Paging.Hierarchy.fast_hits h) /. float_of_int refs;
        promotions = Paging.Hierarchy.promotions h;
        drum_faults = Paging.Hierarchy.faults h;
        effective_access_us = Paging.Hierarchy.effective_access_us h;
      })
    rules

let run ?quick ?obs:_ ?seed () =
  let rows = measure ?quick ?seed () in
  print_endline "== X2 (extension): several levels of working storage ==";
  print_endline
    "(16 fast frames @1us over 96 bulk frames @8us over a drum; zipf references)\n";
  Metrics.Table.print
    ~headers:[ "promotion rule"; "fast hits"; "promotions"; "drum faults"; "effective access (us)" ]
    (List.map
       (fun r ->
         [
           r.rule;
           Metrics.Table.fmt_pct r.fast_hit_ratio;
           string_of_int r.promotions;
           string_of_int r.drum_faults;
           Metrics.Table.fmt_float r.effective_access_us;
         ])
       rows);
  print_newline ()
