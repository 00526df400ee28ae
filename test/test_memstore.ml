(* Tests for the memstore library: physical stores, devices, levels,
   channel; and the drum batch schedule of experiment X8, served by the
   lib/device drum model. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_i64 = Alcotest.(check int64)

(* --- Physical --- *)

let test_physical_read_write () =
  let mem = Memstore.Physical.create ~name:"core" ~words:64 in
  check_i64 "zero filled" 0L (Memstore.Physical.read mem 0);
  Memstore.Physical.write mem 10 123456789L;
  check_i64 "round trip" 123456789L (Memstore.Physical.read mem 10);
  Memstore.Physical.write mem 63 (-1L);
  check_i64 "last word" (-1L) (Memstore.Physical.read mem 63);
  check_int "size" 64 (Memstore.Physical.size mem)

let test_physical_bounds () =
  let mem = Memstore.Physical.create ~name:"core" ~words:8 in
  let raises f =
    match f () with
    | _ -> false
    | exception Memstore.Physical.Bound_violation _ -> true
  in
  check_bool "read -1" true (raises (fun () -> Memstore.Physical.read mem (-1)));
  check_bool "read 8" true (raises (fun () -> Memstore.Physical.read mem 8));
  check_bool "write 8" true (raises (fun () -> Memstore.Physical.write mem 8 0L));
  check_bool "blit over end" true
    (raises (fun () ->
         Memstore.Physical.blit ~src:mem ~src_off:4 ~dst:mem ~dst_off:6 ~len:3))

let test_physical_blit_overlap () =
  let mem = Memstore.Physical.create ~name:"core" ~words:16 in
  for i = 0 to 7 do
    Memstore.Physical.write mem i (Int64.of_int (100 + i))
  done;
  (* Overlapping move down by 2. *)
  Memstore.Physical.blit ~src:mem ~src_off:2 ~dst:mem ~dst_off:0 ~len:6;
  for i = 0 to 5 do
    check_i64 "moved word" (Int64.of_int (102 + i)) (Memstore.Physical.read mem i)
  done

let test_physical_fill_and_counters () =
  let mem = Memstore.Physical.create ~name:"core" ~words:16 in
  Memstore.Physical.fill mem ~off:2 ~len:4 7L;
  check_i64 "filled" 7L (Memstore.Physical.read mem 3);
  check_i64 "outside fill" 0L (Memstore.Physical.read mem 6);
  check_bool "write counter counts fill" true (Memstore.Physical.writes mem >= 4);
  check_bool "read counter" true (Memstore.Physical.reads mem >= 2)

(* --- Device --- *)

let test_device_costs () =
  check_int "core word" 2 (Memstore.Device.word_access_us Memstore.Device.core);
  check_int "core transfer 512" 2
    (Memstore.Device.transfer_us Memstore.Device.core ~words:512);
  check_int "drum transfer 512" (6_000 + 2_048)
    (Memstore.Device.transfer_us Memstore.Device.drum ~words:512);
  check_bool "disk slower than drum" true
    (Memstore.Device.transfer_us Memstore.Device.disk ~words:512
    > Memstore.Device.transfer_us Memstore.Device.drum ~words:512)

let test_device_zero_cost_floor () =
  let free = Memstore.Device.custom ~label:"free" ~latency_us:0 ~word_ns:0 in
  check_int "zero device zero cost" 0 (Memstore.Device.word_access_us free);
  let fast = Memstore.Device.custom ~label:"fast" ~latency_us:0 ~word_ns:1 in
  check_int "sub-us floors to 1" 1 (Memstore.Device.word_access_us fast)

(* --- Level --- *)

let test_level_charges_clock () =
  let clock = Sim.Clock.create () in
  let core = Memstore.Level.make clock Memstore.Device.core ~name:"core" ~words:32 in
  Memstore.Level.write core 0 42L;
  check_int "write cost" 2 (Sim.Clock.now clock);
  check_i64 "value" 42L (Memstore.Level.read core 0);
  check_int "read cost" 4 (Sim.Clock.now clock);
  check_i64 "free read" 42L (Memstore.Level.read_free core 0);
  check_int "free read is free" 4 (Sim.Clock.now clock)

let test_level_transfer () =
  let clock = Sim.Clock.create () in
  let core = Memstore.Level.make clock Memstore.Device.core ~name:"core" ~words:1024 in
  let drum = Memstore.Level.make clock Memstore.Device.drum ~name:"drum" ~words:1024 in
  Memstore.Level.write drum 100 77L;
  let before = Sim.Clock.now clock in
  Memstore.Level.transfer ~src:drum ~src_off:100 ~dst:core ~dst_off:0 ~len:512;
  check_i64 "data arrived" 77L (Memstore.Level.read_free core 0);
  check_int "charged slower device"
    (Memstore.Device.transfer_us Memstore.Device.drum ~words:512)
    (Sim.Clock.now clock - before)

let test_level_transfer_async_queues () =
  let clock = Sim.Clock.create () in
  let core = Memstore.Level.make clock Memstore.Device.core ~name:"core" ~words:4096 in
  let drum = Memstore.Level.make clock Memstore.Device.drum ~name:"drum" ~words:4096 in
  let t1 = Memstore.Level.transfer_async ~src:drum ~src_off:0 ~dst:core ~dst_off:0 ~len:512 in
  let t2 = Memstore.Level.transfer_async ~src:drum ~src_off:512 ~dst:core ~dst_off:512 ~len:512 in
  check_int "clock not advanced" 0 (Sim.Clock.now clock);
  let unit_cost = Memstore.Device.transfer_us Memstore.Device.drum ~words:512 in
  check_int "first completes after one transfer" unit_cost t1;
  check_int "second queues behind first" (2 * unit_cost) t2;
  check_int "busy_until tracks" (2 * unit_cost) (Memstore.Level.busy_until drum)

(* --- Drum batches: the x8 schedule --- *)

type served = { id : int; arrival : int; sector : int; start : int; finish : int }

(* Serve a batch of (arrival_us, sector) requests on one channel of a
   [sectors]-sector drum turning once per [sectors] ms (page [s] lives
   in sector [s]).  Requests are submitted in arrival order, so ids
   follow arrival and FIFO ties break by submission.  Returns the
   services in completion order, start read off the Io_start events. *)
let serve_drum ~sched ~sectors batch =
  let starts = Hashtbl.create 64 in
  let obs =
    Obs.Sink.collect (fun ev ->
        match ev.Obs.Event.kind with
        | Obs.Event.Io_start { req; _ } -> Hashtbl.replace starts req ev.Obs.Event.t_us
        | _ -> ())
  in
  let geometry = Device.Geometry.drum ~sectors ~rotation_us:(sectors * 1_000) () in
  let m = Device.Model.create ~obs (Device.Model.config ~sched geometry) in
  let submitted =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) batch
    |> List.map (fun (arrival, sector) ->
           let id =
             Device.Model.submit m ~now:arrival ~kind:Device.Request.Demand ~page:sector
               ~words:0
           in
           (id, (arrival, sector)))
  in
  let served = ref [] in
  while
    Device.Model.take_completion m (fun ~id ~page ~finish_us _ ->
        let arrival, sector = List.assoc id submitted in
        check_int "delivered page" sector page;
        served :=
          { id; arrival; sector; start = Hashtbl.find starts id; finish = finish_us } :: !served)
  do
    ()
  done;
  List.rev !served

let span services = List.fold_left (fun m s -> max m s.finish) 0 services

let test_drum_single_request_alignment () =
  (* At t=0 the heads are at sector 0: a request for sector 2 starts at
     2000 and takes one sector time. *)
  (match serve_drum ~sched:Device.Sched.Fifo ~sectors:4 [ (0, 2) ] with
   | [ s ] ->
     check_int "start" 2000 s.start;
     check_int "finish" 3000 s.finish
   | _ -> Alcotest.fail "one completion expected");
  (* A request for the sector just passed waits a full revolution. *)
  match serve_drum ~sched:Device.Sched.Fifo ~sectors:4 [ (100, 0) ] with
  | [ s ] -> check_int "full revolution" 4000 s.start
  | _ -> Alcotest.fail "one completion expected"

let test_drum_satf_reorders () =
  (* Two requests at t=0: sector 3, then sector 1.  FIFO serves the
     first submitted (sector 3) first; SATF serves sector 1 first. *)
  let first sched =
    match serve_drum ~sched ~sectors:4 [ (0, 3); (0, 1) ] with
    | s :: _ -> s.sector
    | [] -> Alcotest.fail "completions expected"
  in
  check_int "fifo serves arrival order" 3 (first Device.Sched.Fifo);
  check_int "satf serves nearest sector" 1 (first Device.Sched.Satf)

let test_drum_satf_under_load_approaches_sector_time () =
  let rng = Sim.Rng.create 5 in
  let n = 500 in
  (* Saturating arrivals: everything queued at t=0. *)
  let batch = List.init n (fun _ -> (0, Sim.Rng.int rng 16)) in
  let services = serve_drum ~sched:Device.Sched.Satf ~sectors:16 batch in
  (* SATF on a saturated queue transfers nearly back-to-back sectors. *)
  check_bool "throughput near one sector per sector-time" true
    (span services < n * 1_000 * 3 / 2)

let test_drum_all_served_once () =
  let rng = Sim.Rng.create 6 in
  let batch =
    List.init 100 (fun _ ->
        let arrival = Sim.Rng.int rng 50_000 in
        (arrival, Sim.Rng.int rng 8))
  in
  let services = serve_drum ~sched:Device.Sched.Satf ~sectors:8 batch in
  check_int "every request served" 100 (List.length services);
  check_int "served exactly once" 100
    (List.length (List.sort_uniq compare (List.map (fun s -> s.id) services)));
  List.iter
    (fun s -> check_bool "no service before arrival" true (s.start >= s.arrival))
    services

(* Drum properties: service is exclusive and aligned; SATF never takes
   longer than FIFO to drain a saturated batch. *)
let drum_service_property =
  QCheck.Test.make ~name:"drum service is exclusive, aligned and complete" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_bound 20_000) (int_bound 7)))
    (fun batch ->
      let services = serve_drum ~sched:Device.Sched.Satf ~sectors:8 batch in
      List.length services = List.length batch
      && List.for_all
           (fun s ->
             s.start >= s.arrival
             && s.start mod 1000 = 0
             && (s.start / 1000) mod 8 = s.sector
             && s.finish = s.start + 1000)
           services
      (* no two services overlap *)
      &&
      let rec disjoint = function
        | a :: (b :: _ as rest) -> a.finish <= b.start && disjoint rest
        | [ _ ] | [] -> true
      in
      disjoint (List.sort (fun a b -> compare a.start b.start) services))

let drum_satf_no_slower_property =
  QCheck.Test.make ~name:"SATF drains a saturated batch no slower than FIFO" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 7))
    (fun sectors ->
      let batch = List.map (fun sector -> (0, sector)) sectors in
      span (serve_drum ~sched:Device.Sched.Satf ~sectors:8 batch)
      <= span (serve_drum ~sched:Device.Sched.Fifo ~sectors:8 batch))

(* --- Channel --- *)

let test_channel_moves_and_charges () =
  let clock = Sim.Clock.create () in
  let mem = Memstore.Physical.create ~name:"core" ~words:128 in
  let chan = Memstore.Channel.create clock ~word_ns:500 in
  for i = 0 to 9 do
    Memstore.Physical.write mem (20 + i) (Int64.of_int i)
  done;
  Memstore.Channel.move chan mem ~src:20 ~dst:0 ~len:10;
  check_i64 "moved" 9L (Memstore.Physical.read mem 9);
  check_int "cost 5us" 5 (Sim.Clock.now clock);
  check_int "words counted" 10 (Memstore.Channel.words_moved chan);
  check_int "time counted" 5 (Memstore.Channel.time_spent_us chan)

let test_channel_cheaper_than_processor () =
  let clock_a = Sim.Clock.create () and clock_b = Sim.Clock.create () in
  let mem = Memstore.Physical.create ~name:"core" ~words:4096 in
  let hw = Memstore.Channel.create clock_a ~word_ns:500 in
  let sw = Memstore.Channel.processor_copy clock_b in
  Memstore.Channel.move hw mem ~src:1024 ~dst:0 ~len:1024;
  Memstore.Channel.move sw mem ~src:1024 ~dst:0 ~len:1024;
  check_bool "hardware channel faster" true (Sim.Clock.now clock_a < Sim.Clock.now clock_b)

(* Property: blit then read back equals source contents. *)
let physical_blit_roundtrip =
  QCheck.Test.make ~name:"blit preserves contents" ~count:100
    QCheck.(triple (int_bound 20) (int_bound 20) (int_bound 20))
    (fun (src_off, dst_off, len) ->
      let mem = Memstore.Physical.create ~name:"m" ~words:64 in
      for i = 0 to 63 do
        Memstore.Physical.write mem i (Int64.of_int (i * 31))
      done;
      let expected = Array.init len (fun i -> Memstore.Physical.read mem (src_off + i)) in
      Memstore.Physical.blit ~src:mem ~src_off ~dst:mem ~dst_off ~len;
      Array.for_all
        (fun ok -> ok)
        (Array.init len (fun i -> Memstore.Physical.read mem (dst_off + i) = expected.(i))))

let () =
  Alcotest.run "memstore"
    [
      ( "physical",
        [
          Alcotest.test_case "read/write" `Quick test_physical_read_write;
          Alcotest.test_case "bounds" `Quick test_physical_bounds;
          Alcotest.test_case "blit overlap" `Quick test_physical_blit_overlap;
          Alcotest.test_case "fill+counters" `Quick test_physical_fill_and_counters;
          QCheck_alcotest.to_alcotest physical_blit_roundtrip;
        ] );
      ( "device",
        [
          Alcotest.test_case "costs" `Quick test_device_costs;
          Alcotest.test_case "zero floor" `Quick test_device_zero_cost_floor;
        ] );
      ( "level",
        [
          Alcotest.test_case "charges clock" `Quick test_level_charges_clock;
          Alcotest.test_case "transfer" `Quick test_level_transfer;
          Alcotest.test_case "async queues" `Quick test_level_transfer_async_queues;
        ] );
      ( "drum",
        [
          Alcotest.test_case "alignment" `Quick test_drum_single_request_alignment;
          Alcotest.test_case "satf reorders" `Quick test_drum_satf_reorders;
          Alcotest.test_case "satf throughput" `Quick
            test_drum_satf_under_load_approaches_sector_time;
          Alcotest.test_case "served once" `Quick test_drum_all_served_once;
          QCheck_alcotest.to_alcotest drum_service_property;
          QCheck_alcotest.to_alcotest drum_satf_no_slower_property;
        ] );
      ( "channel",
        [
          Alcotest.test_case "move+charge" `Quick test_channel_moves_and_charges;
          Alcotest.test_case "cheaper than processor" `Quick test_channel_cheaper_than_processor;
        ] );
    ]
