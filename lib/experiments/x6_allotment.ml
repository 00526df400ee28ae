type row = {
  program : string;
  frames : int;
  faults : int;
  elapsed_us : int;
  space_time : float;
  optimal : bool;
}

let page_size = 512

let fetch_us = 8_000

let compute_us_per_ref = 5

(* The three traces share one stream, drawn last-listed first. *)
let programs ~quick rng =
  let length = if quick then 4_000 else 40_000 in
  let phases set_size =
    Workload.Trace.working_set_phases rng ~length ~extent:96 ~set_size
      ~phase_length:(length / 6) ~locality:1.0
  in
  let scattered = Workload.Trace.zipf rng ~length ~extent:96 ~skew:0.8 in
  let loose = phases 36 in
  let tight = phases 12 in
  [ ("tight (WS~12)", tight); ("loose (WS~36)", loose); ("scattered (zipf)", scattered) ]

let frames_swept = [ 4; 8; 16; 24; 32; 48; 64; 96 ]

let measure ?(quick = false) ?seed () =
  let rng = Sim.Rng.derive ?override:seed 2121 in
  List.concat_map
    (fun (program, trace) ->
      let points =
        Paging.Lifetime.space_time_curve Paging.Spec.Lru ~frames:frames_swept ~page_size
          ~compute_us_per_ref ~fetch_us trace
      in
      let best = Paging.Lifetime.optimal_allotment points in
      List.map
        (fun (p : Paging.Lifetime.space_time_point) ->
          {
            program;
            frames = p.Paging.Lifetime.frames;
            faults = p.Paging.Lifetime.faults;
            elapsed_us = p.Paging.Lifetime.elapsed_us;
            space_time = p.Paging.Lifetime.space_time;
            optimal = p.Paging.Lifetime.frames = best.Paging.Lifetime.frames;
          })
        points)
    (programs ~quick rng)

let run ?(quick = false) ?obs:_ ?seed () =
  let rows = measure ~quick ?seed () in
  print_endline "== X6 (extension): sizing storage by the space-time product ==";
  print_endline
    "(LRU; ST = allotment x elapsed; the minimum marks the allotment the program is worth)\n";
  let by_program = List.sort_uniq compare (List.map (fun r -> r.program) rows) in
  List.iter
    (fun program ->
      let group = List.filter (fun r -> r.program = program) rows in
      Printf.printf "--- program: %s ---\n" program;
      Metrics.Table.print
        ~headers:[ "frames"; "faults"; "elapsed (us)"; "space-time (word-us)"; "" ]
        (List.map
           (fun r ->
             [
               string_of_int r.frames;
               string_of_int r.faults;
               string_of_int r.elapsed_us;
               Printf.sprintf "%.3g" r.space_time;
               (if r.optimal then "<- optimum" else "");
             ])
           group);
      print_newline ())
    by_program;
  (* The variable-allotment alternative: hold exactly the working set. *)
  let rng = Sim.Rng.derive ?override:seed 2121 in
  print_endline
    "--- variable allotment: hold exactly W(t, tau=200) (working-set policy) ---\n";
  Metrics.Table.print
    ~headers:[ "program"; "mean resident"; "faults"; "space-time (word-us)" ]
    (List.map
       (fun (name, trace) ->
         let r =
           Paging.Lifetime.working_set_run ~tau:200 ~page_size ~compute_us_per_ref
             ~fetch_us trace
         in
         [
           name;
           Printf.sprintf "%.1f pages" r.Paging.Lifetime.mean_resident;
           string_of_int r.Paging.Lifetime.ws_faults;
           Printf.sprintf "%.3g" r.Paging.Lifetime.ws_space_time;
         ])
       (programs ~quick rng));
  print_newline ()
