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

(* Page requests with exponential interarrivals and uniform sectors
   (page [s] lives in sector [s]). *)
let request_stream rng ~count ~mean_gap_us =
  let now = ref 0. in
  List.init count (fun id ->
      now := !now +. Sim.Rng.exponential rng mean_gap_us;
      let page = Sim.Rng.int rng sectors in
      Device.Request.make ~id ~kind:Device.Request.Demand ~page ~words:0
        ~arrival_us:(int_of_float !now) ())

(* Serve the whole batch on one channel: whenever the drum is free,
   the policy picks among the requests that have arrived (idling to
   the next arrival if none has); returns the mean fetch latency.
   Requests move from [upcoming], in arrival order, to [waiting] as
   they arrive.  [Sched.pick] breaks ties by (arrival, id), so the
   order of [waiting] cannot change its choice. *)
let mean_latency_us sched requests =
  let upcoming =
    ref
      (List.stable_sort
         (fun (a : Device.Request.t) (b : Device.Request.t) ->
           Int.compare a.arrival_us b.arrival_us)
         requests)
  in
  let waiting = ref [] and now = ref 0 and total = ref 0. in
  while !upcoming <> [] || !waiting <> [] do
    let rec admit = function
      | (r : Device.Request.t) :: rest when r.arrival_us <= !now ->
        waiting := r :: !waiting;
        admit rest
      | rest -> rest
    in
    upcoming := admit !upcoming;
    match Device.Sched.pick sched ~geometry ~at:!now ~head:0 !waiting with
    | None -> (
      match !upcoming with (r : Device.Request.t) :: _ -> now := r.arrival_us | [] -> ())
    | Some chosen ->
      let _, finish, _ =
        Device.Geometry.service geometry ~at:!now ~head:0 ~page:chosen.page
          ~words:chosen.words
      in
      total := !total +. float_of_int (finish - chosen.arrival_us);
      now := finish;
      waiting := List.filter (fun (r : Device.Request.t) -> r.id <> chosen.id) !waiting
  done;
  !total /. float_of_int (List.length requests)

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
          let latency = mean_latency_us sched (request_stream rng ~count ~mean_gap_us) in
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
