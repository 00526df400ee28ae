type row = {
  jobs : int;
  fetch_us : int;
  regime : string;
  cpu_utilization : float;
  total_faults : int;
  elapsed_us : int;
}

let pages_per_job = 24

let point ?obs ?seed ~refs_per_job ~frames ~fetch_us jobs =
  let rng = Sim.Rng.derive ?override:seed (jobs + (fetch_us * 7)) in
  let mix =
    Workload.Job.mix rng ~jobs ~refs_per_job ~pages_per_job ~locality:0.9
      ~compute_us_per_ref:15
  in
  Dsas.Multiprog.run ?obs ~frames ~policy:(Paging.Replacement.lru ()) ~fetch_us mix

let measure ?(quick = false) ?(obs = Obs.Sink.null) ?seed () =
  let refs_per_job = if quick then 300 else 2_000 in
  let ks = if quick then [ 1; 4 ] else [ 1; 2; 3; 4; 6; 8 ] in
  let fetches = [ 500; 5_000 ] in
  (* Each scheduler run has its own clock from 0 and spans its elapsed
     time. *)
  let sp = Obs.Sink.splice ?seed obs in
  let one ~regime ~frames k fetch_us =
    let config = Printf.sprintf "c7 regime=%s jobs=%d fetch_us=%d" regime k fetch_us in
    let report =
      point ~obs:(Obs.Sink.next sp ~config) ?seed ~refs_per_job ~frames ~fetch_us k
    in
    Obs.Sink.advance sp report.Dsas.Multiprog.elapsed_us;
    {
      jobs = k;
      fetch_us;
      regime;
      cpu_utilization = report.Dsas.Multiprog.cpu_utilization;
      total_faults = report.Dsas.Multiprog.total_faults;
      elapsed_us = report.Dsas.Multiprog.elapsed_us;
    }
  in
  List.concat_map
    (fun fetch_us ->
      List.concat_map
        (fun k ->
          [
            one ~regime:"ample store" ~frames:(pages_per_job * k) k fetch_us;
            one ~regime:"fixed 32 frames" ~frames:32 k fetch_us;
          ])
        ks)
    fetches

let run ?quick ?obs ?seed () =
  let rows = measure ?quick ?obs ?seed () in
  print_endline "== C7: multiprogramming vs processor utilization ==";
  print_endline "(one processor, one backing-store channel, LRU over a shared pool)\n";
  Metrics.Table.print
    ~headers:[ "fetch (us)"; "regime"; "jobs"; "cpu utilization"; "faults"; "elapsed (us)" ]
    (List.map
       (fun r ->
         [
           string_of_int r.fetch_us;
           r.regime;
           string_of_int r.jobs;
           Metrics.Table.fmt_pct r.cpu_utilization;
           string_of_int r.total_faults;
           string_of_int r.elapsed_us;
         ])
       rows);
  print_newline ();
  let series regime fetch_us =
    ( Printf.sprintf "%s, fetch=%dus" regime fetch_us,
      List.filter_map
        (fun r ->
          if r.regime = regime && r.fetch_us = fetch_us then
            Some (float_of_int r.jobs, r.cpu_utilization)
          else None)
        rows )
  in
  print_string
    (Metrics.Chart.series ~x_label:"degree of multiprogramming"
       ~y_label:"cpu utilization"
       [
         series "ample store" 5_000;
         series "fixed 32 frames" 5_000;
         series "ample store" 500;
       ]);
  print_newline ()
