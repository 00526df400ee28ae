(* Tests for the observability layer: event encoding, sinks, the
   metrics registry, series, run summaries — and the contract that a
   null sink leaves engine results bit-identical. *)

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

let event_gen =
  let open QCheck.Gen in
  let nat = int_bound 1_000_000 in
  let kinds : Obs.Event.kind QCheck.Gen.t list =
    Obs.Event.
      [
        map (fun page -> Fault { page }) nat;
        map (fun page -> Cold_fault { page }) nat;
        map (fun page -> Eviction { page }) nat;
        map (fun page -> Writeback { page }) nat;
        map (fun key -> Tlb_hit { key }) nat;
        map (fun key -> Tlb_miss { key }) nat;
        map2 (fun addr size -> Alloc { addr; size }) nat nat;
        map2 (fun addr size -> Free { addr; size }) nat nat;
        map3 (fun addr size remainder -> Split { addr; size; remainder }) nat nat nat;
        map2 (fun addr size -> Coalesce { addr; size }) nat nat;
        map3 (fun src dst len -> Compaction_move { src; dst; len }) nat nat nat;
        map3
          (fun segment words dir ->
            Segment_swap { segment; words; direction = (if dir then In else Out) })
          nat nat bool;
        map (fun job -> Job_start { job }) nat;
        map (fun job -> Job_stop { job }) nat;
        map3
          (fun req page io ->
            Io_start
              { req; page; io = (match io with 0 -> Demand | 1 -> Prefetch | _ -> Writeback) })
          nat nat (int_bound 2);
        map3
          (fun req page io ->
            Io_done
              { req; page; io = (match io with 0 -> Demand | 1 -> Prefetch | _ -> Writeback) })
          nat nat (int_bound 2);
        map2 (fun req attempt -> Io_retry { req; attempt }) nat nat;
        map3
          (fun req page attempts ->
            Io_error { req; page; io = Demand; attempts })
          nat nat nat;
        map2 (fun job restarts -> Job_abort { job; restarts }) nat nat;
        map (fun job -> Load_shed { job }) nat;
        map (fun job -> Load_admit { job }) nat;
      ]
  in
  map2
    (fun t_us kind -> Obs.Event.make ~t_us kind)
    nat
    (oneof kinds)

let event_json_property =
  QCheck.Test.make ~name:"event json roundtrip for arbitrary events" ~count:200
    (QCheck.make event_gen)
    (fun e -> Obs.Event.of_json (Obs.Event.to_json e) = Some e)

(* --- Sinks --- *)

let test_ring_wraparound () =
  let r = Obs.Sink.ring ~capacity:4 in
  for i = 0 to 9 do
    Obs.Sink.emit r (ev ~t_us:i (Obs.Event.Fault { page = i }))
  done;
  check_int "seen counts overwrites" 10 (Obs.Sink.ring_seen r);
  let kept = Obs.Sink.ring_contents r in
  check_int "capacity bounds retention" 4 (List.length kept);
  Alcotest.(check (list int)) "last four, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Obs.Event.t_us) kept)

let test_ring_partial_fill () =
  let r = Obs.Sink.ring ~capacity:8 in
  Obs.Sink.emit r (List.hd one_of_each);
  check_int "seen" 1 (Obs.Sink.ring_seen r);
  check_int "kept" 1 (List.length (Obs.Sink.ring_contents r))

let test_null_inactive_others_active () =
  check_bool "null inactive" false (Obs.Sink.is_active Obs.Sink.null);
  check_bool "ring active" true (Obs.Sink.is_active (Obs.Sink.ring ~capacity:1));
  check_bool "collect active" true (Obs.Sink.is_active (Obs.Sink.collect ignore))

let test_combinators_collapse_over_null () =
  check_bool "shift null = null" false
    (Obs.Sink.is_active (Obs.Sink.shift ~offset:100 Obs.Sink.null));
  check_bool "tee null null = null" false
    (Obs.Sink.is_active (Obs.Sink.tee Obs.Sink.null Obs.Sink.null));
  let r = Obs.Sink.ring ~capacity:1 in
  Obs.Sink.emit (Obs.Sink.tee Obs.Sink.null r) (List.hd one_of_each);
  check_int "tee null s = s" 1 (Obs.Sink.ring_seen r)

let test_shift_offsets_timestamps () =
  let r = Obs.Sink.ring ~capacity:4 in
  let s = Obs.Sink.shift ~offset:1000 r in
  Obs.Sink.emit s (ev ~t_us:5 (Obs.Event.Fault { page = 1 }));
  match Obs.Sink.ring_contents r with
  | [ e ] -> check_int "shifted" 1005 e.Obs.Event.t_us
  | l -> Alcotest.failf "expected one event, got %d" (List.length l)

let test_tee_duplicates () =
  let a = Obs.Sink.ring ~capacity:4 and b = Obs.Sink.ring ~capacity:4 in
  let s = Obs.Sink.tee a b in
  List.iter (Obs.Sink.emit s) one_of_each;
  check_int "left" (List.length one_of_each) (Obs.Sink.ring_seen a);
  check_int "right" (List.length one_of_each) (Obs.Sink.ring_seen b)

let test_sample_every_n () =
  let fired = ref [] in
  let s = Obs.Sink.sample ~every:3 (fun e -> fired := e.Obs.Event.t_us :: !fired) in
  for i = 1 to 10 do
    Obs.Sink.emit s (ev ~t_us:i (Obs.Event.Fault { page = i }))
  done;
  Alcotest.(check (list int)) "3rd, 6th, 9th" [ 3; 6; 9 ] (List.rev !fired)

(* The sampling contract, as a property: the kept stream is a
   deterministic subsequence of the input, run_start boundaries always
   reach the probe, and — because boundaries do not advance the
   sampling counter — the kept subsequence of ordinary events is
   exactly every N-th of them, however many segments the stream was
   spliced from. *)
let prop_sample_deterministic_subsequence =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 7)
        (list_size (int_bound 60)
           (map2
              (fun boundary t ->
                if boundary then
                  ev ~t_us:t (Obs.Event.Run_start { run = 0; seed = None; config = None })
                else ev ~t_us:t (Obs.Event.Fault { page = t }))
              bool (int_bound 1000))))
  in
  QCheck.Test.make ~name:"sample: deterministic subsequence, boundaries kept"
    ~count:200 (QCheck.make gen)
    (fun (every, events) ->
      let run () =
        let out = ref [] in
        let s = Obs.Sink.sample ~every (fun e -> out := e :: !out) in
        List.iter (Obs.Sink.emit s) events;
        List.rev !out
      in
      let kept = run () in
      let is_boundary e =
        match e.Obs.Event.kind with Obs.Event.Run_start _ -> true | _ -> false
      in
      let rec subsequence xs ys =
        match (xs, ys) with
        | [], _ -> true
        | _, [] -> false
        | x :: xs', y :: ys' -> if x = y then subsequence xs' ys' else subsequence xs ys'
      in
      let boundaries = List.filter is_boundary in
      let ordinary = List.filter (fun e -> not (is_boundary e)) in
      kept = run () (* deterministic: a rerun keeps the same events *)
      && subsequence kept events
      && List.length (boundaries kept) = List.length (boundaries events)
      && List.length (ordinary kept) = List.length (ordinary events) / every)

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

let collect_into acc = Obs.Sink.collect (fun e -> acc := e :: !acc)

let test_fault_sim_counts_match () =
  let trace = Workload.Trace.loop ~length:2_000 ~extent:16 ~working_set:8 in
  let acc = ref [] in
  let r = lru_run ~obs:(collect_into acc) trace in
  let events = List.rev !acc in
  check_int "faults" r.Paging.Fault_sim.faults (count "fault" events);
  check_int "cold" r.Paging.Fault_sim.cold (count "cold_fault" events);
  check_int "evictions" r.Paging.Fault_sim.evictions (count "eviction" events)

let demand_engine ~obs =
  let clock = Sim.Clock.create () in
  let page_size = 16 and frames = 3 and pages = 8 in
  let core =
    Memstore.Level.make clock Memstore.Device.core ~name:"core"
      ~words:(frames * page_size)
  in
  let backing =
    Memstore.Level.make clock Memstore.Device.drum ~name:"drum"
      ~words:(pages * page_size)
  in
  Paging.Demand.create ~obs
    {
      Paging.Demand.page_size;
      frames;
      pages;
      core;
      backing;
      policy = Paging.Replacement.lru ();
      tlb = None;
      compute_us_per_ref = 10;
    }

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
  let traced = demand_engine ~obs:(Obs.Sink.ring ~capacity:64) in
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
  let st = Obs.Registry.stats r "lat" in
  Metrics.Stats.add st 10.;
  Metrics.Stats.add st 20.;
  let snap = Obs.Registry.snapshot r in
  Alcotest.(check (list (pair string int))) "counters sorted" [ ("a", 1); ("b", 3) ]
    snap.Obs.Registry.counters;
  (match snap.Obs.Registry.distributions with
   | [ ("lat", d) ] ->
     check_int "dist count" 2 d.Obs.Registry.count;
     Alcotest.(check (float 1e-9)) "dist mean" 15. d.Obs.Registry.mean
   | _ -> Alcotest.fail "expected one distribution");
  check_bool "snapshot json parses as flat-ish text" true
    (String.length (Obs.Registry.snapshot_to_json snap) > 2)

(* --- Series --- *)

let test_series_to_timeline () =
  let s = Obs.Series.create () in
  Obs.Series.sample s ~t_us:0 10.;
  Obs.Series.sample s ~t_us:100 20.;
  Obs.Series.sample s ~t_us:200 0.;
  check_int "length" 3 (Obs.Series.length s);
  check_bool "last" true (Obs.Series.last s = Some (200, 0.));
  let tl = Obs.Series.to_timeline s in
  check_bool "timeline renders" true
    (String.length (Metrics.Timeline.render ~width:16 ~height:4 tl) > 0)

let test_series_rejects_backwards_time () =
  let s = Obs.Series.create () in
  Obs.Series.sample s ~t_us:50 1.;
  check_bool "backwards rejected" true
    (match Obs.Series.sample s ~t_us:49 2. with
     | () -> false
     | exception Invalid_argument _ -> true);
  (* equal timestamps are fine: the point is replaced-in-order, not rejected *)
  Obs.Series.sample s ~t_us:50 3.;
  check_int "equal time accepted" 2 (Obs.Series.length s)

let test_series_empty () =
  let s = Obs.Series.create () in
  check_int "length" 0 (Obs.Series.length s);
  check_bool "points" true (Obs.Series.points s = []);
  check_bool "last" true (Obs.Series.last s = None);
  check_int "empty timeline has no segments" 0
    (Metrics.Timeline.segments (Obs.Series.to_timeline s));
  check_string "json" "[]" (Obs.Series.to_json s)

let test_series_single_sample () =
  let s = Obs.Series.create () in
  Obs.Series.sample s ~t_us:7 3.5;
  let tl = Obs.Series.to_timeline s in
  check_int "one segment" 1 (Metrics.Timeline.segments tl);
  (* a lone point gets the minimum final gap of 1us: [7, 8) *)
  check_int "span ends one past the point" 8 (Metrics.Timeline.span_us tl)

let test_series_final_gap_is_mean_gap () =
  let s = Obs.Series.create () in
  (* gaps 10 and 20 -> mean gap 15, so the last segment is [30, 45) *)
  Obs.Series.sample s ~t_us:0 1.;
  Obs.Series.sample s ~t_us:10 2.;
  Obs.Series.sample s ~t_us:30 3.;
  let tl = Obs.Series.to_timeline s in
  check_int "segments" 3 (Metrics.Timeline.segments tl);
  check_int "final gap is the mean inter-sample gap" 45 (Metrics.Timeline.span_us tl)

let test_summary_of_no_events () =
  let stats = Obs.Summary.of_events [] in
  check_int "events" 0 stats.Obs.Summary.events;
  check_int "first" 0 stats.Obs.Summary.t_first_us;
  check_int "last" 0 stats.Obs.Summary.t_last_us;
  check_bool "kinds" true (stats.Obs.Summary.kinds = [])

(* --- Summary --- *)

let test_summary_of_events () =
  let stats = Obs.Summary.of_events one_of_each in
  check_int "events" (List.length one_of_each) stats.Obs.Summary.events;
  check_int "first" 0 stats.Obs.Summary.t_first_us;
  check_int "last" 27 stats.Obs.Summary.t_last_us;
  check_int "faults" 1 (Obs.Summary.count stats "fault");
  check_int "swaps" 2 (Obs.Summary.count stats "segment_swap");
  check_int "absent kind" 0 (Obs.Summary.count stats "no_such");
  check_bool "zero counts omitted" true
    (List.for_all (fun (_, n) -> n > 0) stats.Obs.Summary.kinds)

let () =
  Alcotest.run "obs"
    [
      ( "event",
        [
          Alcotest.test_case "json roundtrip" `Quick test_event_json_roundtrip;
          Alcotest.test_case "json shape" `Quick test_event_json_shape;
          Alcotest.test_case "json rejects" `Quick test_event_json_rejects;
          Alcotest.test_case "kind names" `Quick test_all_kind_names_cover;
          QCheck_alcotest.to_alcotest event_json_property;
        ] );
      ( "sink",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "ring partial" `Quick test_ring_partial_fill;
          Alcotest.test_case "activeness" `Quick test_null_inactive_others_active;
          Alcotest.test_case "null collapse" `Quick test_combinators_collapse_over_null;
          Alcotest.test_case "shift" `Quick test_shift_offsets_timestamps;
          Alcotest.test_case "tee" `Quick test_tee_duplicates;
          Alcotest.test_case "sample" `Quick test_sample_every_n;
          QCheck_alcotest.to_alcotest prop_sample_deterministic_subsequence;
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
      ( "series",
        [
          Alcotest.test_case "to timeline" `Quick test_series_to_timeline;
          Alcotest.test_case "backwards time" `Quick test_series_rejects_backwards_time;
          Alcotest.test_case "empty series" `Quick test_series_empty;
          Alcotest.test_case "single sample" `Quick test_series_single_sample;
          Alcotest.test_case "final gap rule" `Quick test_series_final_gap_is_mean_gap;
        ] );
      ( "summary",
        [
          Alcotest.test_case "of_events" `Quick test_summary_of_events;
          Alcotest.test_case "of no events" `Quick test_summary_of_no_events;
        ] );
    ]
