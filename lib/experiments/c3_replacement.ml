type curve = {
  trace_name : string;
  policy : string;
  points : (int * float) list;
}

type shape = Loop | Phases | Zipf

let shape_name = function
  | Loop -> "loop(40 of 64)"
  | Phases -> "working-set phases"
  | Zipf -> "zipf(1.0)"

let trace rng ~length = function
  | Loop -> Workload.Trace.loop ~length ~extent:64 ~working_set:40
  | Phases ->
    Workload.Trace.working_set_phases rng ~length ~extent:128 ~set_size:24
      ~phase_length:(length / 10) ~locality:0.9
  | Zipf -> Workload.Trace.zipf rng ~length ~extent:128 ~skew:1.0

(* The two random traces share one stream: zipf is drawn first. *)
let traces ~quick rng =
  let length = if quick then 2_000 else 30_000 in
  let zipf = trace rng ~length Zipf in
  let phases = trace rng ~length Phases in
  [ (Loop, trace rng ~length Loop); (Phases, phases); (Zipf, zipf) ]

let frame_points ~quick =
  if quick then [ 16; 32 ] else [ 8; 16; 24; 32; 40; 48; 56; 64 ]

let specs = Paging.Spec.all_practical @ [ Paging.Spec.Opt ]

let point ?obs ?seed ~frames spec trace =
  let policy =
    Paging.Spec.instantiate spec ~rng:(Sim.Rng.derive ?override:seed 9) ~trace:(Some trace)
  in
  Paging.Fault_sim.run ?obs ~frames ~policy trace

let measure ?(quick = false) ?(obs = Obs.Sink.null) ?seed () =
  let rng = Sim.Rng.derive ?override:seed 555 in
  (* Fault_sim stamps events with the reference index, so each
     policy/frame run spans its trace's length. *)
  let sp = Obs.Sink.splice ?seed obs in
  List.concat_map
    (fun (shape, trace) ->
      let trace_name = shape_name shape in
      List.map
        (fun spec ->
          let points =
            List.map
              (fun frames ->
                let config =
                  Printf.sprintf "c3 trace=%s policy=%s frames=%d" trace_name
                    (Paging.Spec.to_string spec) frames
                in
                let r = point ~obs:(Obs.Sink.next sp ~config) ?seed ~frames spec trace in
                Obs.Sink.advance sp (Array.length trace);
                (frames, Paging.Fault_sim.fault_rate r))
              (frame_points ~quick)
          in
          { trace_name; policy = Paging.Spec.to_string spec; points })
        specs)
    (traces ~quick rng)

let anomaly_rows () =
  let trace = Workload.Trace.belady_anomaly_trace in
  List.map
    (fun frames ->
      let fifo = Paging.Fault_sim.run ~frames ~policy:(Paging.Replacement.fifo ()) trace in
      let lru = Paging.Fault_sim.run ~frames ~policy:(Paging.Replacement.lru ()) trace in
      (frames, fifo.Paging.Fault_sim.faults, lru.Paging.Fault_sim.faults))
    [ 1; 2; 3; 4; 5 ]

let run ?quick ?obs ?seed () =
  let curves = measure ?quick ?obs ?seed () in
  print_endline "== C3: replacement strategies — fault rate vs memory size ==";
  let by_trace =
    List.sort_uniq compare (List.map (fun c -> c.trace_name) curves)
  in
  List.iter
    (fun trace_name ->
      let group = List.filter (fun c -> c.trace_name = trace_name) curves in
      Printf.printf "\n--- trace: %s ---\n" trace_name;
      let frames = List.map fst (List.hd group).points in
      Metrics.Table.print
        ~headers:("policy" :: List.map (fun f -> Printf.sprintf "%d frames" f) frames)
        (List.map
           (fun c ->
             c.policy :: List.map (fun (_, rate) -> Metrics.Table.fmt_pct rate) c.points)
           group);
      let interesting p = List.mem p [ "FIFO"; "LRU"; "RANDOM"; "ATLAS"; "OPT" ] in
      print_string
        (Metrics.Chart.series ~x_label:"frames" ~y_label:"fault rate"
           (List.filter_map
              (fun c ->
                if interesting c.policy then
                  Some (c.policy, List.map (fun (f, r) -> (float_of_int f, r)) c.points)
                else None)
              group)))
    by_trace;
  print_endline "\n--- Belady's anomaly (reference string 1 2 3 4 1 2 5 1 2 3 4 5) ---\n";
  Metrics.Table.print ~headers:[ "frames"; "FIFO faults"; "LRU faults" ]
    (List.map
       (fun (f, fifo, lru) -> [ string_of_int f; string_of_int fifo; string_of_int lru ])
       (anomaly_rows ()));
  print_endline "(note FIFO: 4 frames fault MORE than 3 frames; LRU is monotone)\n"
