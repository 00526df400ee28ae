(* Tests for the observability layer: event encoding, sinks, the
   metrics registry — and the contract that a null sink leaves engine
   results bit-identical. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let ev ~t_us kind = Obs.Event.make ~t_us kind

(* One event of every kind, with varied payloads. *)
let one_of_each =
  Obs.Event.
    [
      ev ~t_us:0 (Run_start { run = 0; seed = None; config = None });
      ev ~t_us:0 (Fault { page = 7 });
      ev ~t_us:1 (Cold_fault { page = 7 });
      ev ~t_us:2 (Eviction { page = 3 });
      ev ~t_us:2 (Writeback { page = 3 });
      ev ~t_us:5 (Tlb_hit { key = 99 });
      ev ~t_us:6 (Tlb_miss { key = 100 });
      ev ~t_us:7 (Alloc { addr = 4096; size = 128 });
      ev ~t_us:8 (Free { addr = 4096; size = 128 });
      ev ~t_us:9 (Split { addr = 0; size = 64; remainder = 192 });
      ev ~t_us:10 (Coalesce { addr = 0; size = 256 });
      ev ~t_us:11 (Compaction_move { src = 512; dst = 0; len = 40 });
      ev ~t_us:12 (Segment_swap { segment = 2; words = 300; direction = In });
      ev ~t_us:13 (Segment_swap { segment = 2; words = 300; direction = Out });
      ev ~t_us:14 (Job_start { job = 0 });
      ev ~t_us:15 (Job_stop { job = 0 });
      ev ~t_us:16 (Io_start { req = 4; page = 9; io = Demand });
      ev ~t_us:17 (Io_done { req = 4; page = 9; io = Writeback });
      ev ~t_us:18 (Io_retry { req = 4; attempt = 1 });
      ev ~t_us:19 (Io_error { req = 4; page = 9; io = Demand; attempts = 3 });
      ev ~t_us:20 (Job_abort { job = 0; restarts = 1 });
      ev ~t_us:21 (Load_shed { job = 1 });
      ev ~t_us:22 (Load_admit { job = 1 });
      ev ~t_us:23 (Shard_crash { shard = 2; attempt = 1 });
      ev ~t_us:24 (Shard_restart { shard = 2; attempt = 1 });
      ev ~t_us:25 (Shard_checkpoint { shard = 2; progress = 512; events = 300 });
      ev ~t_us:26 (Watchdog_fire { rule = "ev.fault>100@3"; snapshots = 3 });
      ev ~t_us:27 (Watchdog_clear { rule = "ev.fault>100@3"; snapshots = 5 });
    ]

(* --- Event JSON --- *)

let test_event_json_roundtrip () =
  List.iter
    (fun e ->
      match Obs.Event.of_json (Obs.Event.to_json e) with
      | Some back -> check_bool (Obs.Event.to_json e) true (back = e)
      | None -> Alcotest.failf "did not parse back: %s" (Obs.Event.to_json e))
    one_of_each

let test_event_json_shape () =
  check_string "fault shape" {|{"t_us":1200,"ev":"fault","page":7}|}
    (Obs.Event.to_json (ev ~t_us:1200 (Obs.Event.Fault { page = 7 })))

let test_event_json_rejects () =
  List.iter
    (fun s -> check_bool s true (Obs.Event.of_json s = None))
    [
      "";
      "garbage";
      {|{"t_us":1,"ev":"no_such_event"}|};
      {|{"t_us":1}|};
      {|{"ev":"fault","page":1}|};
      (* missing t_us *)
      {|{"t_us":-5,"ev":"fault","page":1}|};
      (* negative time *)
      {|{"t_us":1,"ev":"fault"}|};
      (* missing payload *)
      {|{"t_us":1,"ev":"fault","page":1} trailing|};
      {|{"t_us":1,"ev":"fault","page":{"nested":1}}|};
    ]

let test_all_kind_names_cover () =
  let distinct =
    List.sort_uniq compare
      (List.map (fun e -> Obs.Event.kind_name e.Obs.Event.kind) one_of_each)
  in
  check_int "fixture covers every kind" (List.length Obs.Event.all_kind_names)
    (List.length distinct);
  List.iter
    (fun e ->
      check_bool "listed" true
        (List.mem (Obs.Event.kind_name e.Obs.Event.kind) Obs.Event.all_kind_names))
    one_of_each

let test_generator_covers_every_kind () =
  let rand = Random.State.make [| 23 |] in
  let names =
    List.map
      (fun g -> Obs.Event.kind_name (QCheck.Gen.generate1 ~rand g))
      (Event_gen.kinds ~shard:Event_gen.payload)
  in
  Alcotest.(check (list string)) "one generator per kind, in order" Obs.Event.all_kind_names names

let event_json_property =
  QCheck.Test.make ~name:"event json roundtrip for arbitrary events" ~count:500
    (QCheck.make ~print:Obs.Event.to_json Event_gen.event)
    (fun e -> Obs.Event.of_json (Obs.Event.to_json e) = Some e)

(* The direct writer against the Json.t printer: the same bytes as the
   object of t_us, ev and the kind's wire fields. *)
let event_bytes_property =
  QCheck.Test.make ~name:"to_json prints the bytes of the Json.t object" ~count:1000
    (QCheck.make ~print:Obs.Event.to_json Event_gen.event)
    (fun e ->
      Obs.Event.to_json e
      = Obs.Json.to_string
          (Obs.Json.Obj
             (("t_us", Obs.Json.Int e.Obs.Event.t_us)
              :: ("ev", Obs.Json.String (Obs.Event.kind_name e.Obs.Event.kind))
              :: Obs.Event.fields_of_kind e.Obs.Event.kind)))

let add_int_property =
  QCheck.Test.make ~name:"Json.add_int writes string_of_int" ~count:1000
    QCheck.(oneof [ int; small_signed_int; oneofl [ 0; 9; 10; 9999; 10_000; -10_000; max_int; min_int ] ])
    (fun n ->
      let buf = Buffer.create 8 in
      Obs.Json.add_int buf n;
      Buffer.contents buf = string_of_int n)

(* --- The writer's edges --- *)

(* The Json.t printer's bytes for an event: what every writer must
   produce. *)
let printed (e : Obs.Event.t) =
  Obs.Json.to_string
    (Obs.Json.Obj
       (("t_us", Obs.Json.Int e.t_us)
        :: ("ev", Obs.Json.String (Obs.Event.kind_name e.kind))
        :: Obs.Event.fields_of_kind e.kind))

(* Quotes, backslashes, every control byte and every other byte, so
   an escaped string is several times its length. *)
let long_text n =
  String.init n (fun i ->
      match i mod 5 with 0 -> '"' | 1 -> '\\' | 2 -> Char.chr (i mod 32) | _ -> Char.chr (i mod 256))

(* Strings past the writer's first capacity, and past the export's
   64 KiB chunk. *)
let long_events =
  List.concat_map
    (fun n ->
      let s = long_text n in
      Obs.Event.
        [ ev ~t_us:1 (Run_start { run = 1; seed = Some 3; config = Some s });
          ev ~t_us:2 (Watchdog_fire { rule = s; snapshots = 2 });
          ev ~t_us:3 (Fault { page = n });
          ev ~t_us:4 (Watchdog_clear { rule = s; snapshots = 4 }) ])
    [ 300; 70_000 ]

(* Every digit count from 1 to 19, at both ends of each count, of both
   signs, and the ends of the int range. *)
let every_width =
  let rec widths k low acc =
    if k > 19 then acc
    else
      let high = if k = 19 then max_int else (low * 10) - 1 in
      widths (k + 1) (low * 10) (low :: high :: (-low) :: (-high) :: acc)
  in
  min_int :: max_int :: widths 1 1 [ 0 ]

let test_to_buffer_appends () =
  List.iter
    (fun e ->
      let buf = Buffer.create 4 in
      Buffer.add_string buf "already here\n";
      Obs.Event.to_buffer buf e;
      check_string (Obs.Event.to_json e) ("already here\n" ^ Obs.Event.to_json e)
        (Buffer.contents buf))
    (one_of_each @ long_events)

let test_jsonl_writes_to_json_lines () =
  let events = one_of_each @ long_events in
  let file = Filename.temp_file "dsas_obs" ".jsonl" in
  let oc = open_out_bin file in
  let s = Obs.Sink.jsonl oc in
  List.iter (Obs.Sink.emit s) events;
  Obs.Sink.flush s;
  close_out oc;
  let got = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  check_bool "to_json and a newline per event" true
    (got = String.concat "" (List.map (fun e -> Obs.Event.to_json e ^ "\n") events))

let test_long_strings () =
  List.iter
    (fun e ->
      let buf = Buffer.create 16 in
      Obs.Event.to_buffer buf e;
      check_bool "to_json" true (Obs.Event.to_json e = printed e);
      check_bool "to_buffer" true (Buffer.contents buf = printed e))
    long_events;
  let stream = one_of_each @ long_events @ one_of_each in
  check_bool "chrome_of_events" true
    (Obs.Export.chrome_of_events stream = Chrome_reference.of_events stream)

let test_every_int_width () =
  check_int "four per digit count, zero and the ends" 79 (List.length every_width);
  let events =
    List.concat_map
      (fun n ->
        Obs.Event.
          [ ev ~t_us:n (Fault { page = 1 });
            ev ~t_us:0 (Run_start { run = 0; seed = Some n; config = None }) ])
      every_width
  in
  List.iter
    (fun e ->
      let buf = Buffer.create 16 in
      Obs.Event.to_buffer buf e;
      check_string "to_json" (printed e) (Obs.Event.to_json e);
      check_string "to_buffer" (printed e) (Buffer.contents buf))
    events;
  check_bool "chrome_of_events" true
    (Obs.Export.chrome_of_events events = Chrome_reference.of_events events)

(* --- Sinks --- *)

let collect_into acc = Obs.Sink.collect (fun e -> acc := e :: !acc)

let test_null_inactive_others_active () =
  check_bool "null inactive" false (Obs.Sink.is_active Obs.Sink.null);
  check_bool "collect active" true (Obs.Sink.is_active (Obs.Sink.collect ignore));
  check_bool "segment over collect active" true
    (Obs.Sink.is_active (Obs.Sink.segment ~run:0 ~offset:0 (Obs.Sink.collect ignore)))

let test_combinators_collapse_over_null () =
  check_bool "segment null = null" false
    (Obs.Sink.is_active (Obs.Sink.segment ~run:0 ~offset:100 Obs.Sink.null));
  check_bool "tee null null = null" false
    (Obs.Sink.is_active (Obs.Sink.tee Obs.Sink.null Obs.Sink.null));
  let acc = ref [] in
  Obs.Sink.emit (Obs.Sink.tee Obs.Sink.null (collect_into acc)) (List.hd one_of_each);
  check_int "tee null s = s" 1 (List.length !acc)

let test_segment_offsets_timestamps () =
  let acc = ref [] in
  let s = Obs.Sink.segment ~run:3 ~offset:1000 (collect_into acc) in
  Obs.Sink.emit s (ev ~t_us:5 (Obs.Event.Fault { page = 1 }));
  match List.rev !acc with
  | [ b; e ] ->
    check_bool "boundary first, at the shifted origin" true
      (b = ev ~t_us:1000 (Obs.Event.Run_start { run = 3; seed = None; config = None }));
    check_int "shifted" 1005 e.Obs.Event.t_us
  | l -> Alcotest.failf "expected two events, got %d" (List.length l)

(* Each run: its config, the stamps it emits on its own clock, and the
   span the experiment advances past it. *)
let emit_runs ~next ~advance runs =
  List.iter
    (fun (config, stamps, span) ->
      let s = next config in
      List.iter (fun t_us -> Obs.Sink.emit s (ev ~t_us (Obs.Event.Fault { page = t_us }))) stamps;
      advance span)
    runs

(* The loop [Sink.splice] replaced: a run counter, and an offset grown
   by each run's span. *)
let hand_spliced ?seed obs runs =
  let t_base = ref 0 and count = ref 0 in
  emit_runs runs
    ~next:(fun config ->
      let s = Obs.Sink.segment ?seed ~config ~run:!count ~offset:!t_base obs in
      incr count;
      s)
    ~advance:(fun span -> t_base := !t_base + span)

let spliced ?seed obs runs =
  let sp = Obs.Sink.splice ?seed obs in
  emit_runs runs ~next:(fun config -> Obs.Sink.next sp ~config) ~advance:(Obs.Sink.advance sp)

let splice_runs_gen =
  QCheck.Gen.(
    pair (opt (int_bound 1_000))
      (map
         (List.mapi (fun i (stamps, span) -> (Printf.sprintf "run %d" i, stamps, span)))
         (list_size (int_bound 8)
            (pair (list_size (int_bound 5) (int_bound 100)) (int_bound 200)))))

let splice_matches_hand_loop =
  QCheck.Test.make ~name:"splice = the hand-rolled segment loop" ~count:300
    (QCheck.make splice_runs_gen)
    (fun (seed, runs) ->
      let got = ref [] and want = ref [] in
      spliced ?seed (collect_into got) runs;
      hand_spliced ?seed (collect_into want) runs;
      (* Run k opens at the sum of the spans before it, carrying the
         seed and its config. *)
      let boundaries =
        List.filter_map
          (fun (e : Obs.Event.t) ->
            match e.kind with
            | Obs.Event.Run_start { run; seed; config } -> Some (e.t_us, run, seed, config)
            | _ -> None)
          (List.rev !got)
      in
      let expected, _ =
        List.fold_left
          (fun (acc, offset) (config, _, span) ->
            ((offset, List.length acc, seed, Some config) :: acc, offset + span))
          ([], 0) runs
      in
      !got = !want && boundaries = List.rev expected)

let test_splice_over_null () =
  let sp = Obs.Sink.splice ~seed:7 Obs.Sink.null in
  for _ = 1 to 3 do
    check_bool "segment inactive" false (Obs.Sink.is_active (Obs.Sink.next sp ~config:"c"));
    Obs.Sink.advance sp 10
  done

let test_tee_duplicates () =
  let a = ref [] and b = ref [] in
  let s = Obs.Sink.tee (collect_into a) (collect_into b) in
  List.iter (Obs.Sink.emit s) one_of_each;
  check_int "left" (List.length one_of_each) (List.length !a);
  check_int "right" (List.length one_of_each) (List.length !b)

let test_jsonl_sink_writes_parseable_lines () =
  let file = Filename.temp_file "dsas_obs" ".jsonl" in
  let oc = open_out file in
  let s = Obs.Sink.jsonl oc in
  List.iter (Obs.Sink.emit s) one_of_each;
  Obs.Sink.flush s;
  close_out oc;
  let ic = open_in file in
  let back = ref [] in
  (try
     while true do
       match Obs.Event.of_json (input_line ic) with
       | Some e -> back := e :: !back
       | None -> Alcotest.fail "unparseable line"
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove file;
  check_bool "all events round-trip through the file" true
    (List.rev !back = one_of_each)

(* --- Engines with a null sink stay bit-identical --- *)

let lru_run ~obs trace =
  Paging.Fault_sim.run ~obs ~frames:3 ~policy:(Paging.Replacement.lru ()) trace

let test_null_sink_identical_results () =
  let trace = Workload.Trace.loop ~length:2_000 ~extent:16 ~working_set:8 in
  let plain = lru_run ~obs:Obs.Sink.null trace in
  let collected = ref 0 in
  let traced = lru_run ~obs:(Obs.Sink.collect (fun _ -> incr collected)) trace in
  check_bool "identical result record" true (plain = traced);
  check_bool "the traced run did emit" true (!collected > 0)

(* --- Event counts match engine counters --- *)

let count kind_name events =
  List.length
    (List.filter (fun e -> Obs.Event.kind_name e.Obs.Event.kind = kind_name) events)


let test_fault_sim_counts_match () =
  let trace = Workload.Trace.loop ~length:2_000 ~extent:16 ~working_set:8 in
  let acc = ref [] in
  let r = lru_run ~obs:(collect_into acc) trace in
  let events = List.rev !acc in
  check_int "faults" r.Paging.Fault_sim.faults (count "fault" events);
  check_int "cold" r.Paging.Fault_sim.cold (count "cold_fault" events);
  check_int "evictions" r.Paging.Fault_sim.evictions (count "eviction" events)

let demand_engine ~obs =
  Paging.Spec.build ~obs ~clock:(Sim.Clock.create ()) ~rng:(Sim.Rng.create 0)
    { Paging.Spec.e_page_size = 16; e_frames = 3; e_pages = 8;
      e_device = Memstore.Device.drum; e_policy = Paging.Spec.Lru; e_tlb_slots = None;
      e_compute_us_per_ref = 10 }

let demand_trace =
  (* Writes force writebacks; span > frames forces evictions. *)
  Array.init 400 (fun i -> (i * 7) mod (8 * 16))

let test_demand_counts_match () =
  let acc = ref [] in
  let engine = demand_engine ~obs:(collect_into acc) in
  Array.iter
    (fun a ->
      if a mod 3 = 0 then Paging.Demand.write engine a 1L
      else ignore (Paging.Demand.read engine a))
    demand_trace;
  let events = List.rev !acc in
  check_int "faults" (Paging.Demand.faults engine) (count "fault" events);
  check_int "writebacks" (Paging.Demand.writebacks engine) (count "writeback" events);
  check_bool "every fault-event page was cold at most once" true
    (count "cold_fault" events <= count "fault" events);
  (* 8 distinct pages, all touched: exactly 8 cold faults. *)
  check_int "cold faults = distinct pages" 8 (count "cold_fault" events)

let test_demand_null_vs_traced_values () =
  let plain = demand_engine ~obs:Obs.Sink.null in
  let traced = demand_engine ~obs:(collect_into (ref [])) in
  let vals engine =
    Array.map
      (fun a ->
        if a mod 3 = 0 then begin
          Paging.Demand.write engine a (Int64.of_int a);
          Int64.of_int a
        end
        else Paging.Demand.read engine a)
      demand_trace
  in
  let a = vals plain and b = vals traced in
  check_bool "values bit-identical" true (a = b);
  check_int "faults equal" (Paging.Demand.faults plain) (Paging.Demand.faults traced);
  check_int "writebacks equal" (Paging.Demand.writebacks plain)
    (Paging.Demand.writebacks traced)

let test_demand_timestamps_monotone () =
  let acc = ref [] in
  let engine = demand_engine ~obs:(collect_into acc) in
  Array.iter (fun a -> ignore (Paging.Demand.read engine a)) demand_trace;
  let events = List.rev !acc in
  check_bool "some events" true (events <> []);
  ignore
    (List.fold_left
       (fun prev e ->
         check_bool "monotone t_us" true (e.Obs.Event.t_us >= prev);
         e.Obs.Event.t_us)
       0 events)

let test_allocator_events () =
  let words = 256 in
  let mem = Memstore.Physical.create ~name:"core" ~words in
  let acc = ref [] in
  let a =
    Freelist.Allocator.create ~obs:(collect_into acc) mem ~base:0 ~len:words
      ~policy:Freelist.Policy.First_fit
  in
  let x = Option.get (Freelist.Allocator.alloc a 32) in
  let y = Option.get (Freelist.Allocator.alloc a 32) in
  Freelist.Allocator.free a x;
  Freelist.Allocator.free a y;
  let events = List.rev !acc in
  check_int "allocs" 2 (count "alloc" events);
  check_int "frees" 2 (count "free" events);
  check_bool "splits seen (carving the big hole)" true (count "split" events >= 1);
  check_bool "coalesce seen (adjacent frees merge)" true (count "coalesce" events >= 1)

let test_multiprog_job_events () =
  let rng = Sim.Rng.create 7 in
  let jobs =
    Workload.Job.mix rng ~jobs:3 ~refs_per_job:200 ~pages_per_job:6 ~locality:0.9
      ~compute_us_per_ref:10
  in
  let acc = ref [] in
  let report =
    Dsas.Multiprog.run ~obs:(collect_into acc) ~frames:12
      ~policy:(Paging.Replacement.lru ()) ~fetch_us:100 jobs
  in
  let events = List.rev !acc in
  check_int "one start per job" 3 (count "job_start" events);
  check_int "one stop per job" 3 (count "job_stop" events);
  check_int "faults" report.Dsas.Multiprog.total_faults (count "fault" events)

(* --- Registry --- *)

let test_registry_counters_gauges () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "faults" in
  Obs.Registry.incr c;
  Obs.Registry.incr ~by:4 c;
  check_int "counter" 5 (Obs.Registry.counter_value c);
  check_int "same handle by name" 5
    (Obs.Registry.counter_value (Obs.Registry.counter r "faults"));
  let g = Obs.Registry.gauge r "occupancy" in
  Obs.Registry.set g 0.75;
  Alcotest.(check (float 1e-9)) "gauge" 0.75 (Obs.Registry.gauge_value g)

let test_registry_snapshot () =
  let r = Obs.Registry.create () in
  Obs.Registry.incr ~by:3 (Obs.Registry.counter r "b");
  Obs.Registry.incr (Obs.Registry.counter r "a");
  Obs.Registry.set (Obs.Registry.gauge r "g") 2.5;
  let snap = Obs.Registry.snapshot r in
  Alcotest.(check (list (pair string int))) "counters sorted" [ ("a", 1); ("b", 3) ]
    snap.Obs.Registry.counters;
  Alcotest.(check (list (pair string (float 1e-9)))) "gauges" [ ("g", 2.5) ]
    snap.Obs.Registry.gauges

let () =
  Alcotest.run "obs"
    [
      ( "event",
        [
          Alcotest.test_case "json roundtrip" `Quick test_event_json_roundtrip;
          Alcotest.test_case "json shape" `Quick test_event_json_shape;
          Alcotest.test_case "json rejects" `Quick test_event_json_rejects;
          Alcotest.test_case "kind names" `Quick test_all_kind_names_cover;
          Alcotest.test_case "generator covers every kind" `Quick
            test_generator_covers_every_kind;
          QCheck_alcotest.to_alcotest event_json_property;
          QCheck_alcotest.to_alcotest event_bytes_property;
          QCheck_alcotest.to_alcotest add_int_property;
        ] );
      ( "writer",
        [
          Alcotest.test_case "to_buffer appends to_json" `Quick test_to_buffer_appends;
          Alcotest.test_case "jsonl writes to_json lines" `Quick test_jsonl_writes_to_json_lines;
          Alcotest.test_case "long escaped strings" `Quick test_long_strings;
          Alcotest.test_case "ints of every width" `Quick test_every_int_width;
        ] );
      ( "sink",
        [
          Alcotest.test_case "activeness" `Quick test_null_inactive_others_active;
          Alcotest.test_case "null collapse" `Quick test_combinators_collapse_over_null;
          Alcotest.test_case "shift" `Quick test_segment_offsets_timestamps;
          QCheck_alcotest.to_alcotest splice_matches_hand_loop;
          Alcotest.test_case "splice over null" `Quick test_splice_over_null;
          Alcotest.test_case "tee" `Quick test_tee_duplicates;
          Alcotest.test_case "jsonl" `Quick test_jsonl_sink_writes_parseable_lines;
        ] );
      ( "engines",
        [
          Alcotest.test_case "null sink identical" `Quick test_null_sink_identical_results;
          Alcotest.test_case "fault_sim counts" `Quick test_fault_sim_counts_match;
          Alcotest.test_case "demand counts" `Quick test_demand_counts_match;
          Alcotest.test_case "demand null vs traced" `Quick test_demand_null_vs_traced_values;
          Alcotest.test_case "demand monotone" `Quick test_demand_timestamps_monotone;
          Alcotest.test_case "allocator events" `Quick test_allocator_events;
          Alcotest.test_case "multiprog jobs" `Quick test_multiprog_job_events;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters/gauges" `Quick test_registry_counters_gauges;
          Alcotest.test_case "snapshot" `Quick test_registry_snapshot;
        ] );
    ]
