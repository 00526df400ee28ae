(* Tests for the live-telemetry layer: Obs.Telemetry (engine-time
   cadence, wire format, pure recomputation, deterministic merge),
   Obs.Watch (rule grammar and the threshold / stall / delta
   detectors), Obs.Export (Chrome trace events, flamegraph SVG,
   telemetry CSV), and the watchdog trace invariants in Obs.Check. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let ev ~t_us kind = Obs.Event.make ~t_us kind

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let snap ?shard ~seq ~t ?(counters = []) ?(gauges = []) () =
  {
    Obs.Telemetry.sn_seq = seq;
    sn_t_us = t;
    sn_shard = shard;
    sn_counters = counters;
    sn_gauges = gauges;
  }

(* --- Telemetry: cadence ---------------------------------------------- *)

(* Keep a channel's snapshots, oldest first, through its capture hook. *)
let recording chan =
  let acc = ref [] in
  Obs.Telemetry.on_capture chan (fun s -> acc := s :: !acc);
  fun () -> Array.of_list (List.rev !acc)

let test_cadence_collapses_missed_deadlines () =
  let chan = Obs.Telemetry.create ~every_us:100 () in
  let captured = recording chan in
  let count () = Array.length (captured ()) in
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "ops" in
  Obs.Registry.incr c;
  Obs.Telemetry.observe chan ~t_us:50 reg;
  check_int "before the first deadline: nothing" 0 (count ());
  Obs.Telemetry.observe chan ~t_us:100 reg;
  check_int "deadline reached: one capture" 1 (count ());
  Obs.Telemetry.observe chan ~t_us:150 reg;
  check_int "mid-interval: still one" 1 (count ());
  (* engine time jumps across three deadlines (200, 300, 400): the
     skipped deadlines collapse into a single capture *)
  Obs.Telemetry.observe chan ~t_us:460 reg;
  check_int "collapsed jump: one more capture" 2 (count ());
  Obs.Telemetry.observe chan ~t_us:499 reg;
  check_int "next deadline is past the jump" 2 (count ());
  Obs.Telemetry.observe chan ~t_us:500 reg;
  check_int "and fires at 500" 3 (count ());
  let snaps = captured () in
  check_bool "dense seqs from 0" true
    (Array.to_list (Array.map (fun s -> s.Obs.Telemetry.sn_seq) snaps) = [ 0; 1; 2 ]);
  check_bool "stamped with engine time at capture" true
    (Array.to_list (Array.map (fun s -> s.Obs.Telemetry.sn_t_us) snaps)
    = [ 100; 460; 500 ]);
  check_bool "whole-run channel has no shard tag" true
    (Array.for_all (fun s -> s.Obs.Telemetry.sn_shard = None) snaps)

let test_engine_time_never_goes_backwards () =
  let chan = Obs.Telemetry.create ~every_us:10 () in
  let captured = recording chan in
  let reg = Obs.Registry.create () in
  Obs.Telemetry.observe chan ~t_us:25 reg;
  (* an out-of-order timestamp must not rewind the cadence clock *)
  Obs.Telemetry.observe chan ~t_us:5 reg;
  let snaps = captured () in
  check_int "stale timestamp ignored" 1 (Array.length snaps);
  check_int "capture kept the running max" 25 snaps.(0).Obs.Telemetry.sn_t_us

let test_create_rejects_bad_arguments () =
  let rejects f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "every_us = 0" true
    (rejects (fun () -> Obs.Telemetry.create ~every_us:0 ()))

(* --- Telemetry: wire format ------------------------------------------ *)

let test_snapshot_json_roundtrip () =
  let s =
    snap ~shard:2 ~seq:7 ~t:1234
      ~counters:[ ("ev.alloc", 41); ("ev.fault", 3) ]
      ~gauges:[ ("io.inflight", 1.5); ("t_last_us", 1200.) ]
      ()
  in
  let line = Obs.Telemetry.snapshot_to_json s in
  check_bool "schema stamped" true
    (Obs.Json.flat line
     |> Option.map (fun f -> Obs.Json.string (List.assoc_opt "schema" f))
    = Some (Some Obs.Telemetry.schema));
  (match Obs.Telemetry.snapshot_of_json line with
   | None -> Alcotest.fail "round-trip lost the snapshot"
   | Some s' -> check_bool "round-trips exactly" true (s = s'));
  (* whole-run channels omit the shard field *)
  let plain = snap ~seq:0 ~t:10 ~counters:[ ("c", 1) ] () in
  let line = Obs.Telemetry.snapshot_to_json plain in
  check_bool "no shard field for whole-run" true
    (Obs.Json.flat line
     |> Option.map (fun f -> Obs.Json.int (List.assoc_opt "shard" f))
    = Some None);
  check_bool "whole-run round-trips" true
    (Obs.Telemetry.snapshot_of_json line = Some plain)

let test_snapshot_json_rejects () =
  check_bool "garbage" true (Obs.Telemetry.snapshot_of_json "nope" = None);
  check_bool "wrong schema" true
    (Obs.Telemetry.snapshot_of_json {|{"schema":"other/1","seq":0,"t_us":0}|} = None);
  check_bool "missing seq" true
    (Obs.Telemetry.snapshot_of_json
       (Printf.sprintf {|{"schema":%S,"t_us":0}|} Obs.Telemetry.schema)
    = None);
  check_bool "negative t_us" true
    (Obs.Telemetry.snapshot_of_json
       (Printf.sprintf {|{"schema":%S,"seq":0,"t_us":-5}|} Obs.Telemetry.schema)
    = None)

let read_mirror lines =
  let path = Readers.temp_file (String.concat "\n" lines) in
  let snaps = Readers.snapshots_of_file path in
  Sys.remove path;
  snaps

let test_parse_lines_strict () =
  let good =
    List.map Obs.Telemetry.snapshot_to_json
      [ snap ~seq:0 ~t:10 ~counters:[ ("c", 1) ] (); snap ~seq:1 ~t:20 () ]
  in
  (match read_mirror ("# comment" :: "" :: good) with
   | Error e -> Alcotest.failf "clean stream refused: %s" e
   | Ok snaps -> check_int "comments and blanks skipped" 2 (List.length snaps));
  (match read_mirror (good @ [ "{torn" ]) with
   | Ok _ -> Alcotest.fail "malformed line accepted"
   | Error e ->
     check_bool ("mentions the line: " ^ e) true
       (contains_substring e "line 3"));
  match read_mirror [ "# only a comment" ] with
  | Ok _ -> Alcotest.fail "empty stream accepted"
  | Error e ->
    check_bool ("empty stream is an error: " ^ e) true
      (contains_substring e "no telemetry")

(* --- Telemetry: the event tap and pure recomputation ----------------- *)

let tap_events =
  [
    ev ~t_us:0 (Obs.Event.Run_start { run = 0; seed = Some 1; config = None });
    ev ~t_us:100 (Obs.Event.Alloc { addr = 0; size = 8 });
    ev ~t_us:400 (Obs.Event.Fault { page = 3 });
    (* io timestamps run ahead of the engine clock and must not drive
       the cadence *)
    ev ~t_us:5000 (Obs.Event.Io_start { req = 0; page = 3; io = Obs.Event.Demand });
    ev ~t_us:5400 (Obs.Event.Io_done { req = 0; page = 3; io = Obs.Event.Demand });
    ev ~t_us:1100 (Obs.Event.Alloc { addr = 8; size = 8 });
    ev ~t_us:2300 (Obs.Event.Free { addr = 0; size = 8 });
  ]

let test_events_sink_folds_and_paces () =
  let chan = Obs.Telemetry.create ~every_us:1000 () in
  let captured = recording chan in
  let reg = Obs.Registry.create () in
  let sink = Obs.Telemetry.events_sink chan reg in
  List.iter (Obs.Sink.emit sink) tap_events;
  (* deadlines crossed by non-io events: 1000 (at t=1100), 2000 (at
     t=2300) — the io pair at t=5000+ must not have fired one *)
  let snaps = captured () in
  check_int "io events do not advance the cadence" 2 (Array.length snaps);
  check_bool "captures at non-io engine times" true
    (Array.to_list (Array.map (fun s -> s.Obs.Telemetry.sn_t_us) snaps)
    = [ 1100; 2300 ]);
  let last = snaps.(1) in
  let counter name = List.assoc_opt name last.Obs.Telemetry.sn_counters in
  check_bool "per-kind counters" true
    (counter "ev.alloc" = Some 2
    && counter "ev.fault" = Some 1
    && counter "ev.run_start" = Some 1
    && counter "ev.io_start" = Some 1
    && counter "ev.free" = Some 1);
  let gauge name = List.assoc_opt name last.Obs.Telemetry.sn_gauges in
  check_bool "io drained back to zero" true (gauge "io.inflight" = Some 0.);
  check_bool "t_last_us tracks the engine clock" true (gauge "t_last_us" = Some 2300.)

let test_of_events_is_pure_and_matches_live () =
  let events = Array.of_list tap_events in
  let a = Obs.Telemetry.of_events ~every_us:1000 events in
  let b = Obs.Telemetry.of_events ~every_us:1000 events in
  check_bool "pure: same input, same snapshots" true (a = b);
  let chan = Obs.Telemetry.create ~every_us:1000 () in
  let captured = recording chan in
  let reg = Obs.Registry.create () in
  let sink = Obs.Telemetry.events_sink chan reg in
  Array.iter (Obs.Sink.emit sink) events;
  check_bool "recomputation equals the live tap" true (a = captured ());
  let tagged = Obs.Telemetry.of_events ~shard:3 ~every_us:1000 events in
  check_bool "shard tag applied" true
    (Array.for_all (fun s -> s.Obs.Telemetry.sn_shard = Some 3) tagged)

let test_merge_orders_by_time_shard_seq () =
  let s0 =
    [| snap ~shard:0 ~seq:0 ~t:100 (); snap ~shard:0 ~seq:1 ~t:200 () |]
  in
  let s1 =
    [| snap ~shard:1 ~seq:0 ~t:100 (); snap ~shard:1 ~seq:1 ~t:150 () |]
  in
  let key s = (s.Obs.Telemetry.sn_t_us, s.Obs.Telemetry.sn_shard, s.Obs.Telemetry.sn_seq) in
  let merged = Obs.Telemetry.merge [| s0; s1 |] in
  check_bool "(t, shard, seq) order" true
    (Array.to_list (Array.map key merged)
    = [ (100, Some 0, 0); (100, Some 1, 0); (150, Some 1, 1); (200, Some 0, 1) ]);
  (* arrival order of the streams must not matter for tagged snapshots *)
  let swapped = Obs.Telemetry.merge [| s1; s0 |] in
  check_bool "independent of stream arrival order" true (merged = swapped);
  check_bool "merged stream passes check" true
    (Obs.Telemetry.check (Array.to_list merged) = [])

let test_check_catches_structural_problems () =
  let ok =
    [ snap ~shard:0 ~seq:0 ~t:10 (); snap ~shard:1 ~seq:0 ~t:10 ();
      snap ~shard:0 ~seq:1 ~t:20 () ]
  in
  check_bool "interleaved producers are fine" true (Obs.Telemetry.check ok = []);
  let gap = [ snap ~seq:0 ~t:10 (); snap ~seq:2 ~t:20 () ] in
  check_bool "seq gap reported" true
    (List.exists
       (fun p -> contains_substring p "dense")
       (Obs.Telemetry.check gap));
  let rewind = [ snap ~seq:0 ~t:30 (); snap ~seq:1 ~t:10 () ] in
  check_bool "time rewind reported" true
    (List.exists
       (fun p -> contains_substring p "monotone")
       (Obs.Telemetry.check rewind));
  let late_start = [ snap ~shard:4 ~seq:3 ~t:10 () ] in
  check_bool "first seq must be 0" true
    (List.exists
       (fun p -> contains_substring p "expected 0")
       (Obs.Telemetry.check late_start))

(* [top --follow] waits for a path that does not exist yet, since the
   run that creates it may start later, and stops at once on one that
   exists but cannot be read. *)
let test_follow_waits_only_for_missing () =
  let missing = Filename.temp_file "dsas_mirror" ".jsonl" in
  Sys.remove missing;
  let dir = Filename.dirname missing in
  let ticks = ref 0 in
  let sleep _ =
    incr ticks;
    if !ticks = 3 then raise Exit
  in
  (match Obs.Telemetry.follow ~interval:0. ~sleep dir with
   | Error msg -> check_string "a directory ends the wait" (dir ^ ": Is a directory") msg
   | Ok () -> Alcotest.fail "follow returned Ok");
  check_int "no tick on a directory" 0 !ticks;
  (match Obs.Telemetry.follow ~interval:0. ~sleep missing with
   | exception Exit -> ()
   | Ok () | Error _ -> Alcotest.fail "follow gave up on a missing file");
  check_int "a missing file is waited for" 3 !ticks

(* --- Watch: the rule grammar ----------------------------------------- *)

let parse_ok spec =
  match Obs.Watch.parse spec with
  | Ok r -> r
  | Error e -> Alcotest.failf "rule %S refused: %s" spec e

let test_rule_grammar_roundtrip () =
  List.iter
    (fun spec ->
      let r = parse_ok spec in
      check_string "canonical spelling survives" spec (Obs.Watch.to_string r))
    [ "ev.fault>100@3"; "g<0.25@2"; "ev.job_stop=@5"; "ev.alloc+10@4";
      "ev.job_stop=@5!" ];
  let r = parse_ok "ev.fault>100@3" in
  check_string "source" "ev.fault" r.Obs.Watch.source;
  check_bool "op" true (r.Obs.Watch.op = Obs.Watch.Above 100.);
  check_int "window" 3 r.Obs.Watch.window;
  check_bool "not escalating" false r.Obs.Watch.escalate;
  check_string "name is the spec itself" "ev.fault>100@3" r.Obs.Watch.name;
  let e = parse_ok "ev.job_stop=@5!" in
  check_bool "trailing ! escalates" true e.Obs.Watch.escalate;
  check_bool "stall op" true (e.Obs.Watch.op = Obs.Watch.Stall)

let test_rule_grammar_rejects () =
  List.iter
    (fun spec ->
      match Obs.Watch.parse spec with
      | Ok _ -> Alcotest.failf "bad rule %S accepted" spec
      | Error e ->
        check_bool
          (Printf.sprintf "error names the spec (%s)" e)
          true
          (contains_substring e "bad watchdog rule"))
    [ "no-window"; "m>5@0"; "m>x@2"; "m=5@2"; "m>5@two"; ">5@2"; "m@3" ]

(* --- Watch: detector semantics --------------------------------------- *)

let counter_snaps values =
  List.mapi (fun i v -> snap ~seq:i ~t:(i * 100) ~counters:[ ("c", v) ] ()) values

let feed_all w snaps = List.map (Obs.Watch.feed w) snaps

let fires alerts =
  List.filter_map
    (function Obs.Watch.Fire { snapshots; _ } -> Some snapshots | _ -> None)
    alerts

let clears alerts =
  List.filter_map
    (function Obs.Watch.Clear { snapshots; _ } -> Some snapshots | _ -> None)
    alerts

let test_threshold_fires_after_window () =
  let w = Obs.Watch.create [ parse_ok "c>10@2" ] in
  let per_snap = feed_all w (counter_snaps [ 5; 20; 20; 5; 20 ]) in
  check_bool "alert trace" true
    (List.map (fun a -> (fires a, clears a)) per_snap
    = [ ([], []);  (* below threshold *)
        ([], []);  (* violating, streak 1 < window *)
        ([ 2 ], []);  (* streak reaches the window: fire *)
        ([], [ 2 ]);  (* back under: clear, episode total 2 *)
        ([], []) (* a fresh streak of 1: no refire yet *) ]);
  check_bool "not firing at stream end" true (Obs.Watch.firing w = [])

let test_below_on_gauge () =
  let w = Obs.Watch.create [ parse_ok "depth<0.5@1" ] in
  let s v = snap ~seq:0 ~t:0 ~gauges:[ ("depth", v) ] () in
  check_bool "window 1 fires immediately" true (fires (Obs.Watch.feed w (s 0.2)) = [ 1 ]);
  check_bool "and clears on recovery" true (clears (Obs.Watch.feed w (s 0.9)) = [ 1 ])

let test_counter_shadows_gauge () =
  let w = Obs.Watch.create [ parse_ok "x>50@1" ] in
  let s =
    snap ~seq:0 ~t:0 ~counters:[ ("x", 100) ] ~gauges:[ ("x", 0.) ] ()
  in
  check_bool "counter value wins over the same-named gauge" true
    (fires (Obs.Watch.feed w s) = [ 1 ])

let test_stall_detector () =
  let w = Obs.Watch.create [ parse_ok "c=@2" ] in
  let per_snap = feed_all w (counter_snaps [ 7; 7; 7; 3; 3; 3 ]) in
  check_bool "stall fires after window unchanged intervals" true
    (List.map (fun a -> (fires a, clears a)) per_snap
    = [ ([], []);  (* no lookback yet *)
        ([], []);  (* unchanged once *)
        ([ 2 ], []);  (* unchanged twice: stall *)
        ([], [ 2 ]);  (* progressed: clear *)
        ([], []); ([ 2 ], []) ])

let test_delta_detector_fires_on_first_violation () =
  let w = Obs.Watch.create [ parse_ok "c+10@2" ] in
  let per_snap = feed_all w (counter_snaps [ 0; 3; 5; 30 ]) in
  check_bool "delta aggregates its own window" true
    (List.map (fun a -> (fires a, clears a)) per_snap
    = [ ([], []);  (* not enough lookback *)
        ([], []);  (* still not enough *)
        ([ 1 ], []);  (* advanced 5 < 10 over the window: fire at once *)
        ([], [ 1 ]) (* advanced 27 >= 10: clear *) ])

let test_absent_metric_restarts_lookback () =
  let w = Obs.Watch.create [ parse_ok "c=@1" ] in
  let with_c v = snap ~seq:0 ~t:0 ~counters:[ ("c", v) ] () in
  let without = snap ~seq:0 ~t:0 () in
  check_bool "first sight: no lookback" true (Obs.Watch.feed w (with_c 7) = []);
  check_bool "absent: not violating" true (Obs.Watch.feed w without = []);
  check_bool "lookback restarted, still nothing" true (Obs.Watch.feed w (with_c 7) = []);
  check_bool "now the stall is visible again" true
    (fires (Obs.Watch.feed w (with_c 7)) = [ 1 ])

let test_escalation_memory_survives_reset () =
  let w = Obs.Watch.create [ parse_ok "c>1@1!"; parse_ok "c>1000@1" ] in
  let alerts = Obs.Watch.feed w (List.hd (counter_snaps [ 50 ])) in
  check_int "only the low rule fired" 1 (List.length (fires alerts));
  check_bool "firing lists it" true
    (List.map (fun r -> r.Obs.Watch.name) (Obs.Watch.firing w) = [ "c>1@1!" ]);
  check_bool "tripped lists only escalating rules" true
    (List.map (fun r -> r.Obs.Watch.name) (Obs.Watch.tripped w) = [ "c>1@1!" ]);
  Obs.Watch.reset w;
  check_bool "reset forgets the episode" true (Obs.Watch.firing w = []);
  check_bool "reset emits no clears" true
    (clears (Obs.Watch.feed w (List.hd (counter_snaps [ 0 ]))) = []);
  check_bool "but tripped memory survives" true
    (List.map (fun r -> r.Obs.Watch.name) (Obs.Watch.tripped w) = [ "c>1@1!" ])

let test_alert_events_render () =
  let rule = parse_ok "c>10@2" in
  let events =
    Obs.Watch.alert_events ~t_us:777
      [ Obs.Watch.Fire { rule; snapshots = 2 }; Obs.Watch.Clear { rule; snapshots = 4 } ]
  in
  check_bool "typed trace events, stamped and named" true
    (List.map Obs.Event.to_json events
    = [ {|{"t_us":777,"ev":"watchdog_fire","rule":"c>10@2","snapshots":2}|};
        {|{"t_us":777,"ev":"watchdog_clear","rule":"c>10@2","snapshots":4}|} ])

(* --- Export: Chrome trace events ------------------------------------- *)

let chrome_events trace =
  match Obs.Json.parse trace with
  | None -> Alcotest.fail "chrome export is not valid JSON"
  | Some tree ->
    (match Obs.Json.member "traceEvents" tree with
     | Some (Obs.Json.List items) -> items
     | _ -> Alcotest.fail "no traceEvents array")

let field_str item name = Obs.Json.string (Obs.Json.member name item)

let field_num item name = Obs.Json.number (Obs.Json.member name item)

let test_chrome_mapping () =
  let events =
    [
      ev ~t_us:0 (Obs.Event.Run_start { run = 0; seed = Some 7; config = Some "alloc" });
      ev ~t_us:10 (Obs.Event.Alloc { addr = 0; size = 8 });
      ev ~t_us:20 (Obs.Event.Io_start { req = 5; page = 1; io = Obs.Event.Demand });
      ev ~t_us:90 (Obs.Event.Io_done { req = 5; page = 1; io = Obs.Event.Demand });
      ev ~t_us:100 (Obs.Event.Run_start { run = 1; seed = None; config = None });
      ev ~t_us:110 (Obs.Event.Shard_checkpoint { shard = 2; progress = 64; events = 9 });
      ev ~t_us:120 (Obs.Event.Watchdog_fire { rule = "ev.alloc=@3"; snapshots = 3 });
      ev ~t_us:150 (Obs.Event.Watchdog_clear { rule = "ev.alloc=@3"; snapshots = 5 });
    ]
  in
  let items = chrome_events (Obs.Export.chrome_of_events events) in
  let phase ph = List.filter (fun it -> field_str it "ph" = Some ph) items in
  (* both runs and both threads announced *)
  let meta = phase "M" in
  let meta_named name =
    List.filter (fun it -> field_str it "name" = Some name) meta
  in
  check_int "two processes announced" 2 (List.length (meta_named "process_name"));
  check_bool "per-shard thread announced in run 1" true
    (List.exists
       (fun it -> field_num it "pid" = Some 1. && field_num it "tid" = Some 3.)
       (meta_named "thread_name"));
  (* the io pair is an async b/e span on cat io, same id *)
  let io_b = List.filter (fun it -> field_str it "cat" = Some "io") (phase "b") in
  let io_e = List.filter (fun it -> field_str it "cat" = Some "io") (phase "e") in
  check_int "io span opens" 1 (List.length io_b);
  check_int "io span closes" 1 (List.length io_e);
  check_bool "same async id" true
    (field_num (List.hd io_b) "id" = Some 5. && field_num (List.hd io_e) "id" = Some 5.);
  (* watchdog fire/clear pair as an async span keyed by the rule *)
  let wd_b = List.filter (fun it -> field_str it "cat" = Some "watchdog") (phase "b") in
  let wd_e = List.filter (fun it -> field_str it "cat" = Some "watchdog") (phase "e") in
  check_bool "watchdog span keyed by rule" true
    (List.length wd_b = 1 && List.length wd_e = 1
    && field_str (List.hd wd_b) "id" = Some "ev.alloc=@3");
  (* shard-tagged events land on tid = shard + 1, engine events on tid 0 *)
  let instants = phase "i" in
  let of_name n = List.find (fun it -> field_str it "name" = Some n) instants in
  check_bool "engine instant on tid 0" true (field_num (of_name "alloc") "tid" = Some 0.);
  check_bool "checkpoint instant on its shard's track" true
    (field_num (of_name "shard_checkpoint") "tid" = Some 3.);
  (* microseconds pass through unchanged *)
  check_bool "ts is t_us" true (field_num (of_name "alloc") "ts" = Some 10.)

let test_chrome_deterministic_and_parses_empty () =
  let events =
    [ ev ~t_us:0 (Obs.Event.Run_start { run = 0; seed = None; config = None }) ]
  in
  check_bool "same events, same bytes" true
    (Obs.Export.chrome_of_events events = Obs.Export.chrome_of_events events);
  check_int "empty stream still valid" 0
    (List.length (chrome_events (Obs.Export.chrome_of_events [])))

(* The byte-for-byte reference the direct writer is held to. *)
let reference_chrome = Chrome_reference.of_events

let chrome_matches_reference =
  QCheck.Test.make ~name:"chrome export equals the Json.t reference" ~count:500
    (QCheck.make
       ~print:(fun evs -> String.concat "\n" (List.map Obs.Event.to_json evs))
       Event_gen.stream)
    (fun events -> Obs.Export.chrome_of_events events = reference_chrome events)

(* Streams long enough that the export moves its buffer to the chunk
   list at least twice (the writer's chunk is 64 KiB). *)
let chrome_chunks_match_reference =
  QCheck.Test.make ~name:"chrome export across chunk boundaries equals the reference"
    ~count:10
    (QCheck.make
       ~print:(fun evs -> Printf.sprintf "%d events" (List.length evs))
       (Event_gen.stream_of (QCheck.Gen.int_range 3000 4000)))
    (fun events ->
      let chrome = Obs.Export.chrome_of_events events in
      String.length chrome > 2 * 65536 && chrome = reference_chrome events)

let test_chrome_fixtures_match_reference () =
  List.iter
    (fun name ->
      match Readers.events_of_file (Filename.concat "fixtures" name) with
      | Error msg -> Alcotest.failf "%s: %s" name msg
      | Ok events ->
        check_bool name true (Obs.Export.chrome_of_events events = reference_chrome events))
    [ "pair_trace.jsonl"; "merged_par_trace.jsonl"; "recovered_par_trace.jsonl";
      "watchdog_stall_trace.jsonl"; "fig3_quick_trace.jsonl" ]

(* --- Export: flamegraph ---------------------------------------------- *)

let test_flamegraph_renders () =
  let folded = "main;alloc;split 30\nmain;alloc 50\nmain;fault 20\n# note\n" in
  match Obs.Export.flamegraph ~title:"test title" folded with
  | Error e -> Alcotest.failf "flamegraph refused valid folded stacks: %s" e
  | Ok svg ->
    check_bool "is an svg document" true
      (String.starts_with ~prefix:"<svg" svg
      && String.ends_with ~suffix:"</svg>\n" svg);
    check_bool "title escaped in" true
      (contains_substring svg "test title");
    List.iter
      (fun frame ->
        check_bool (frame ^ " box present") true
          (contains_substring svg frame))
      [ "main"; "alloc"; "split"; "fault" ];
    (* deterministic: same input, same bytes *)
    check_bool "deterministic" true
      (Obs.Export.flamegraph ~title:"test title" folded = Ok svg)

let test_flamegraph_rejects_empty () =
  (match Obs.Export.flamegraph "" with
   | Ok _ -> Alcotest.fail "empty input rendered"
   | Error e -> check_bool ("explains the format: " ^ e) true
       (contains_substring e "folded"));
  (match Obs.Export.flamegraph "# comments only\n\n" with
   | Ok _ -> Alcotest.fail "comment-only input rendered"
   | Error _ -> ());
  (* a non-finite weight is a malformed line: skipped, so it cannot
     swamp the valid lines' share of the total *)
  check_bool "infinite weight skipped" true
    (Obs.Export.flamegraph "a;b 5\na;c inf\n" = Obs.Export.flamegraph "a;b 5\n");
  match Obs.Export.flamegraph "a;c inf\n" with
  | Ok _ -> Alcotest.fail "only an infinite weight rendered"
  | Error _ -> ()

(* --- Export: telemetry CSV ------------------------------------------- *)

let test_telemetry_csv_shape () =
  let snaps =
    [
      snap ~shard:0 ~seq:0 ~t:100 ~counters:[ ("ev.alloc", 3) ]
        ~gauges:[ ("io.inflight", 1.) ] ();
      (* a later snapshot with a metric the first lacks: the header is
         the sorted union, missing cells stay empty *)
      snap ~shard:1 ~seq:0 ~t:100 ~counters:[ ("ev.alloc", 5); ("ev.fault", 2) ] ();
    ]
  in
  let csv = Obs.Export.telemetry_csv snaps in
  (match String.split_on_char '\n' csv with
   | header :: row0 :: row1 :: _ ->
     check_string "union header, sorted" "seq,t_us,shard,c.ev.alloc,c.ev.fault,g.io.inflight"
       header;
     check_string "first row" "0,100,0,3,,1" row0;
     check_string "second row sparse" "0,100,1,5,2," row1
   | _ -> Alcotest.fail "csv too short");
  check_string "empty stream is just the fixed header" "seq,t_us,shard\n"
    (Obs.Export.telemetry_csv [])

(* --- Check: the watchdog invariants ---------------------------------- *)

let violated report inv =
  List.exists (fun (i, n) -> i = inv && n > 0) report.Obs.Check.counts

let run_start = {|{"t_us":0,"ev":"run_start","run":0}|}

let test_watchdog_paired_invariant () =
  (* a clean episode: fire then clear, snapshots non-decreasing *)
  let clean =
    [ run_start;
      {|{"t_us":10,"ev":"watchdog_fire","rule":"r","snapshots":2}|};
      {|{"t_us":20,"ev":"watchdog_clear","rule":"r","snapshots":4}|} ]
  in
  check_bool "clean episode passes" true
    (Obs.Check.ok (Readers.check_lines clean));
  (* an episode left open at end of stream is legal (the run may be live) *)
  let open_ended =
    [ run_start; {|{"t_us":10,"ev":"watchdog_fire","rule":"r","snapshots":2}|} ]
  in
  check_bool "open episode passes" true
    (Obs.Check.ok (Readers.check_lines open_ended));
  let double_fire =
    [ run_start;
      {|{"t_us":10,"ev":"watchdog_fire","rule":"r","snapshots":2}|};
      {|{"t_us":20,"ev":"watchdog_fire","rule":"r","snapshots":3}|} ]
  in
  check_bool "double fire violates watchdog-paired" true
    (violated (Readers.check_lines double_fire) Obs.Check.Watchdog_paired);
  let orphan_clear =
    [ run_start; {|{"t_us":10,"ev":"watchdog_clear","rule":"r","snapshots":1}|} ]
  in
  check_bool "clear without fire violates watchdog-paired" true
    (violated (Readers.check_lines orphan_clear) Obs.Check.Watchdog_paired)

let test_watchdog_bounded_invariant () =
  let shrinking =
    [ run_start;
      {|{"t_us":10,"ev":"watchdog_fire","rule":"r","snapshots":5}|};
      {|{"t_us":20,"ev":"watchdog_clear","rule":"r","snapshots":2}|} ]
  in
  let report = Readers.check_lines shrinking in
  check_bool "clear below fire violates watchdog-bounded" true
    (violated report Obs.Check.Watchdog_bounded);
  check_bool "pairing itself was fine" false
    (violated report Obs.Check.Watchdog_paired)

let test_stall_fixture_must_fail () =
  match Readers.check_file "fixtures/watchdog_stall_trace.jsonl" with
  | Error e -> Alcotest.failf "fixture unreadable: %s" e
  | Ok report ->
    check_bool "the committed stall fixture fails check" false (Obs.Check.ok report);
    check_bool "for pairing" true (violated report Obs.Check.Watchdog_paired);
    check_bool "and for bounds" true (violated report Obs.Check.Watchdog_bounded)

let () =
  Alcotest.run "telemetry"
    [
      ( "cadence",
        [
          Alcotest.test_case "missed deadlines collapse" `Quick
            test_cadence_collapses_missed_deadlines;
          Alcotest.test_case "engine time is a running max" `Quick
            test_engine_time_never_goes_backwards;
          Alcotest.test_case "bad arguments rejected" `Quick
            test_create_rejects_bad_arguments;
        ] );
      ( "wire",
        [
          Alcotest.test_case "snapshot json round-trip" `Quick
            test_snapshot_json_roundtrip;
          Alcotest.test_case "malformed snapshots rejected" `Quick
            test_snapshot_json_rejects;
          Alcotest.test_case "parse_lines is strict" `Quick test_parse_lines_strict;
        ] );
      ( "tap",
        [
          Alcotest.test_case "events fold into counters, io exempt" `Quick
            test_events_sink_folds_and_paces;
          Alcotest.test_case "of_events is pure and matches live" `Quick
            test_of_events_is_pure_and_matches_live;
          Alcotest.test_case "merge orders by (t, shard, seq)" `Quick
            test_merge_orders_by_time_shard_seq;
          Alcotest.test_case "check catches structural problems" `Quick
            test_check_catches_structural_problems;
        ] );
      ( "watch",
        [
          Alcotest.test_case "grammar round-trips" `Quick test_rule_grammar_roundtrip;
          Alcotest.test_case "bad rules rejected" `Quick test_rule_grammar_rejects;
          Alcotest.test_case "threshold window" `Quick test_threshold_fires_after_window;
          Alcotest.test_case "below on a gauge" `Quick test_below_on_gauge;
          Alcotest.test_case "counter shadows gauge" `Quick test_counter_shadows_gauge;
          Alcotest.test_case "stall detector" `Quick test_stall_detector;
          Alcotest.test_case "delta fires on first violation" `Quick
            test_delta_detector_fires_on_first_violation;
          Alcotest.test_case "absent metric restarts lookback" `Quick
            test_absent_metric_restarts_lookback;
          Alcotest.test_case "tripped memory survives reset" `Quick
            test_escalation_memory_survives_reset;
          Alcotest.test_case "alerts render as trace events" `Quick
            test_alert_events_render;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome mapping" `Quick test_chrome_mapping;
          QCheck_alcotest.to_alcotest chrome_matches_reference;
          QCheck_alcotest.to_alcotest chrome_chunks_match_reference;
          Alcotest.test_case "chrome fixtures equal the reference" `Quick
            test_chrome_fixtures_match_reference;
          Alcotest.test_case "chrome deterministic, empty ok" `Quick
            test_chrome_deterministic_and_parses_empty;
          Alcotest.test_case "flamegraph renders" `Quick test_flamegraph_renders;
          Alcotest.test_case "flamegraph refuses empty" `Quick
            test_flamegraph_rejects_empty;
          Alcotest.test_case "telemetry csv shape" `Quick test_telemetry_csv_shape;
        ] );
      ( "check",
        [
          Alcotest.test_case "watchdog-paired" `Quick test_watchdog_paired_invariant;
          Alcotest.test_case "watchdog-bounded" `Quick test_watchdog_bounded_invariant;
          Alcotest.test_case "stall fixture must fail" `Quick
            test_stall_fixture_must_fail;
        ] );
      ( "top",
        [
          Alcotest.test_case "follow waits only for a missing file" `Quick
            test_follow_waits_only_for_missing;
        ] );
    ]
