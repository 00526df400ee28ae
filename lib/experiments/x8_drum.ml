type row = {
  policy : string;
  load : float;
  mean_latency_us : float;
  revolutions_per_page : float;
}

let geometry = Device.Geometry.atlas_drum

let sectors, rotation_us =
  match geometry with
  | Device.Geometry.Drum { sectors; rotation_us; _ } -> (sectors, rotation_us)
  | Device.Geometry.Fixed _ | Device.Geometry.Disk _ -> assert false

(* The mean fetch latency of [count] page requests with exponential
   interarrivals and uniform sectors (page [s] lives in sector [s]),
   submitted in arrival order to one drum channel under [sched] and
   drained. *)
let mean_latency_us sched rng ~count ~mean_gap_us =
  let drum = Device.Model.create (Device.Model.config ~sched geometry) in
  let now = ref 0. in
  for _ = 1 to count do
    now := !now +. Sim.Rng.exponential rng mean_gap_us;
    let page = Sim.Rng.int rng sectors in
    ignore
      (Device.Model.submit drum ~now:(int_of_float !now) ~kind:Device.Request.Demand ~page
         ~words:0)
  done;
  while Device.Model.take_completion drum (fun ~id:_ ~page:_ ~finish_us:_ _ -> ()) do
    ()
  done;
  (Device.Model.stats drum).mean_read_latency_us

let measure ?(quick = false) ?seed () =
  let count = if quick then 400 else 4_000 in
  (* Load = expected requests arriving per revolution. *)
  let loads = [ 0.5; 1.0; 1.5; 2.; 6.; 12. ] in
  List.concat_map
    (fun load ->
      let mean_gap_us = float_of_int rotation_us /. load in
      List.map
        (fun (name, sched) ->
          let rng = Sim.Rng.derive ?override:seed 777 in
          let latency = mean_latency_us sched rng ~count ~mean_gap_us in
          {
            policy = name;
            load;
            mean_latency_us = latency;
            revolutions_per_page = latency /. float_of_int rotation_us;
          })
        [ ("arrival order (FIFO)", Device.Sched.Fifo);
          ("shortest access first", Device.Sched.Satf) ])
    loads

let run ?quick ?obs:_ ?seed () =
  let rows = measure ?quick ?seed () in
  print_endline "== X8 (extension): scheduling the paging drum ==";
  Printf.printf "(%d sectors, %d us per revolution; exponential arrivals)\n\n" sectors
    rotation_us;
  Metrics.Table.print
    ~headers:[ "load (req/rev)"; "policy"; "mean fetch latency (us)"; "revolutions/page" ]
    (List.map
       (fun r ->
         [
           Metrics.Table.fmt_float ~decimals:1 r.load;
           r.policy;
           Metrics.Table.fmt_float ~decimals:0 r.mean_latency_us;
           Metrics.Table.fmt_float r.revolutions_per_page;
         ])
       rows);
  print_endline
    "(under load, arrival-order service queues for whole revolutions while\n\
    \ shortest-access-first picks sectors as they arrive at the heads --\n\
    \ the fetch-time term of F3/C7 is a scheduling outcome, not a constant)\n"
