(* Tests for the analysis half of observability: Obs.Query (filters,
   grouping, io pairing, latency percentiles), Obs.Prof (span profiler,
   including the disabled-overhead guard), Obs.Json, and
   Obs.Registry.to_json. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let ev ~t_us kind = Obs.Event.make ~t_us kind

let resolve candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "none of %s exists" (String.concat ", " candidates)

let fixture name = resolve [ "fixtures/" ^ name; "test/fixtures/" ^ name ]

let temp_file contents =
  let path = Filename.temp_file "dsas_query" ".tmp" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* One event of every kind (two segment swaps), t_us 0 .. 27. *)
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

(* --- Json --- *)

let test_parse_nested () =
  let doc =
    {|{"s":"hi","n":3.5,"i":7,"b":true,"nil":null,"arr":[1,2,[3]],"obj":{"k":"v"}}|}
  in
  match Obs.Json.parse doc with
  | None -> Alcotest.fail "nested doc did not parse"
  | Some t ->
    let field k = Obs.Json.member k t in
    check_string "str" "hi" (Option.get (Obs.Json.string (field "s")));
    check_bool "num" true (Obs.Json.number (field "n") = Some 3.5);
    check_bool "int stays int" true (field "i" = Some (Obs.Json.Int 7));
    check_bool "int as num" true (Obs.Json.number (field "i") = Some 7.);
    check_bool "bool" true (field "b" = Some (Obs.Json.Bool true));
    check_bool "null" true (field "nil" = Some Obs.Json.Null);
    (match field "arr" with
     | Some (Obs.Json.List [ Int 1; Int 2; List [ Int 3 ] ]) -> ()
     | _ -> Alcotest.fail "array shape");
    (match field "obj" with
     | Some inner ->
       check_string "nested obj" "v" (Option.get (Obs.Json.string (Obs.Json.member "k" inner)))
     | None -> Alcotest.fail "nested obj missing");
    check_bool "flat rejects nesting" true (Obs.Json.flat doc = None);
    check_bool "flat keeps scalars" true
      (Obs.Json.flat {|{"a":1,"b":2.5,"c":"x"}|}
      = Some [ ("a", Obs.Json.Int 1); ("b", Obs.Json.Float 2.5); ("c", Obs.Json.String "x") ])

let test_parse_rejects () =
  List.iter
    (fun s -> check_bool s true (Obs.Json.parse s = None))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "{} trailing"; "tru"; "{\"a\":1,}";
      (* an integer outside the int range, and a code point past one byte *)
      "4611686018427387904"; "[-4611686018427387905]"; {|"\u0100"|}; {|"\u00g0"|} ];
  List.iter
    (fun s -> check_bool s true (Obs.Json.flat s = None))
    [ "[1]"; {|{"a":true}|}; {|{"a":null}|}; {|{"a":[1]}|}; {|{"a":{}}|} ]

(* The printer's bytes are the on-disk format of every artifact: pin
   each escape class and each float form. *)
let test_printer_bytes () =
  List.iter
    (fun (v, expected) -> check_string expected expected (Obs.Json.to_string v))
    Obs.Json.
      [
        ( String "q\"b\\s/n\nr\rt\tc\001d\031\127\255",
          {|"q\"b\\s/n\nr\rt\tc\u0001d\u001f|} ^ "\127\255\"" );
        (Float 1.0, "1.0");
        (Float (-0.), "-0.0");
        (Float 0.1, "0.1");
        (Float 2.5e-7, "2.5e-07");
        (Float 1e15, "1e+15");
        (Float 1234567890123456., "1234567890123456");
        (Float (1. /. 3.), "0.3333333333333333");
        (Int min_int, "-4611686018427387904");
        (Int max_int, "4611686018427387903");
        (Obj [ ("a", List [ Null; Bool true; Bool false ]); ("", Obj []) ], {|{"a":[null,true,false],"":{}}|});
      ]

(* Round trip over the whole value space.  The one documented
   exception: an integral float of magnitude >= 1e15 may print as plain
   digits, and then reads back as the equal Int. *)
let rec same a b =
  match (a, b) with
  | Obs.Json.Float f, Obs.Json.Float g -> Float.equal f g
  | Obs.Json.Float f, Obs.Json.Int n -> Float.abs f >= 1e15 && float_of_int n = f
  | Obs.Json.List xs, Obs.Json.List ys ->
    List.length xs = List.length ys && List.for_all2 same xs ys
  | Obs.Json.Obj xs, Obs.Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, v) (k', v') -> k = k' && same v v') xs ys
  | _ -> a = b

let json_gen =
  let open QCheck.Gen in
  let str =
    string_size ~gen:(oneof [ char; oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\000'; '\031' ] ])
      (int_range 0 10)
  in
  let finite = map (fun f -> if Float.is_finite f then f else 0.5) float in
  let leaf =
    frequency
      [
        (1, pure Obs.Json.Null);
        (1, map (fun b -> Obs.Json.Bool b) bool);
        (3, map (fun n -> Obs.Json.Int n) (oneof [ int; small_signed_int; oneofl [ min_int; max_int ] ]));
        ( 3,
          map
            (fun f -> Obs.Json.Float f)
            (oneof
               [
                 finite;
                 map float_of_int int;
                 map float_of_int small_signed_int;
                 map (fun n -> float_of_int n +. 0.25) small_signed_int;
               ]) );
        (2, map (fun s -> Obs.Json.String s) str);
      ]
  in
  sized
    (fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Obs.Json.List l) (list_size (int_range 0 4) (self (n / 3))));
               ( 1,
                 map
                   (fun l -> Obs.Json.Obj l)
                   (list_size (int_range 0 4) (pair str (self (n / 3)))) );
             ]))

let json_roundtrip_property =
  QCheck.Test.make ~name:"parse (to_string v) reads v back" ~count:1000
    (QCheck.make ~print:Obs.Json.to_string json_gen)
    (fun v ->
      match Obs.Json.parse (Obs.Json.to_string v) with
      | Some v' -> same v v'
      | None -> false)

(* --- every reader of a written artifact --- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let scratch_dir () =
  let dir = Filename.temp_file "dsas_readers" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () -> rm_rf dir);
  dir

(* Each reader of something the simulator writes, with one valid
   artifact and an acceptance test over raw bytes (file readers go
   through a scratch directory). *)
let readers =
  lazy
  (let dir = scratch_dir () in
  let in_file name text =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  let read_fixture name = In_channel.with_open_bin (fixture name) In_channel.input_all in
  let spec_text = read_fixture "campaign_base/spec.json" in
  let spec = Result.get_ok (Campaign.Spec.of_json spec_text) in
  let ckpt =
    let ck_dir = Filename.concat dir "ck_src" in
    Parallel.Checkpoint.save
      (Parallel.Checkpoint.store ~dir:ck_dir ~shard:0 ())
      {
        Parallel.Checkpoint.ck_shard = 0;
        ck_progress = 128;
        ck_clock_us = 6400;
        ck_rng = 7L;
        ck_payload = [| 1; 2; 3 |];
        ck_events = Array.of_list (List.filteri (fun i _ -> i < 3) one_of_each);
        ck_count = 3;
      };
    In_channel.with_open_bin (Filename.concat ck_dir "shard0.ckpt") In_channel.input_all
  in
  let snapshot =
    {
      Obs.Telemetry.sn_seq = 3;
      sn_t_us = 900;
      sn_shard = Some 1;
      sn_counters = [ ("ev.fault", 12) ];
      sn_gauges = [ ("io.inflight", 1.5) ];
    }
  in
  let golden =
    {
      Campaign.Report.g_metric = "frag.holes";
      g_x = "words";
      g_agg = Campaign.Report.Mean;
      exponent = 0.745;
      tolerance = 0.05;
    }
  in
  let campaign_log text =
    ignore (in_file "spec.json" spec_text);
    ignore (in_file "cells.jsonl" text);
    List.exists (fun (_, st) -> st = Campaign.Store.Done) (Campaign.Store.statuses ~dir spec)
  in
  [
    ( "event",
      Obs.Event.to_json (List.nth one_of_each 9),
      fun s -> Obs.Event.of_json s <> None );
    ( "telemetry snapshot",
      Obs.Telemetry.snapshot_to_json snapshot,
      fun s -> Obs.Telemetry.snapshot_of_json s <> None );
    ( "checkpoint",
      ckpt,
      fun s ->
        ignore (in_file "shard0.ckpt" s);
        Parallel.Checkpoint.load (Parallel.Checkpoint.store ~dir ~shard:0 ()) <> None );
    ("spec", Campaign.Spec.to_json spec, fun s -> Result.is_ok (Campaign.Spec.of_json s));
    ("campaign log", {|{"cell":"policy=first-fit,words=1024,seed=0","status":"done","t":17.5}|}, campaign_log);
    ( "metrics",
      read_fixture "campaign_base/cells/policy=best-fit,words=1024,seed=0.metrics.json",
      fun s -> Result.is_ok (Campaign.Store.load_metrics (in_file "m.json" s)) );
    ( "golden",
      Campaign.Report.golden_to_json golden,
      fun s -> Result.is_ok (Campaign.Report.load_golden (in_file "g.json" s)) );
  ])

let is_blank s = String.for_all (function ' ' | '\t' | '\n' | '\r' -> true | _ -> false) s

(* A reader must refuse any strict prefix of its artifact that drops a
   non-whitespace byte: a torn write never reads as a shorter value. *)
let test_readers_refuse_prefixes () =
  List.iter
    (fun (name, artifact, accepts) ->
      check_bool (name ^ ": the artifact itself reads") true (accepts artifact);
      let n = String.length artifact in
      for k = 0 to n - 1 do
        if not (is_blank (String.sub artifact k (n - k))) then
          if accepts (String.sub artifact 0 k) then
            Alcotest.failf "%s: prefix of %d/%d bytes accepted" name k n
      done)
    (Lazy.force readers)

(* The commands that read a trace or a mirror back, line by line, each
   with one file it reads (the acceptance test: the command's [Ok]).  A
   JSONL file cut at a line boundary is a valid shorter one, so these
   are not held to the strict-prefix test. *)
let file_readers =
  lazy
  (let dir = scratch_dir () in
   let file = Filename.concat dir "in.jsonl" in
   let read f text =
     Out_channel.with_open_bin file (fun oc -> output_string oc text);
     Result.is_ok (f file)
   in
   let lines l = String.concat "" (List.map (fun s -> s ^ "\n") l) in
   let trace = lines (List.map Obs.Event.to_json one_of_each) in
   let mirror =
     lines
       (List.map Obs.Telemetry.snapshot_to_json
          [
            { Obs.Telemetry.sn_seq = 0; sn_t_us = 100; sn_shard = Some 1;
              sn_counters = [ ("ev.fault", 2) ]; sn_gauges = [ ("io.inflight", 1.) ] };
            { Obs.Telemetry.sn_seq = 1; sn_t_us = 200; sn_shard = Some 1;
              sn_counters = [ ("ev.fault", 5) ]; sn_gauges = [ ("io.inflight", 0.) ] };
          ])
   in
   let all _ = true in
   [
     ("check", trace, read (Obs.Check.report_file ~limit:50 ~json:false));
     ("stats", trace, read (fun f -> Obs.Query.read_file (Obs.Query.summary ()) f));
     ( "query --group-by",
       trace,
       read (Obs.Query.report_groups ~keep:all ~key:None ~agg:"count" ~limit:None ~json:false) );
     ( "query --pair",
       trace,
       read (Obs.Query.report_pairs ~keep:all ~spec:"io_start,io_done" ~percentiles:true ~json:false) );
     ( "export --format chrome",
       trace,
       read (Obs.Export.export Obs.Export.Chrome ~out:(Some (Filename.concat dir "out.json"))) );
     ("top", mirror, read (Obs.Telemetry.top ~json:false));
     ("check (telemetry)", mirror, read (Obs.Check.report_file ~limit:50 ~json:false));
   ])

(* No reader raises on any single-byte mutation of its artifact.  The 7
   artifact readers draw about 3,000 cases between them, the 7 file
   readers as many. *)
let readers_total_property =
  QCheck.Test.make ~name:"no reader raises on a single-byte mutation" ~count:6000
    QCheck.(triple (int_bound 13) (int_bound 100_000) (int_bound 255))
    (fun (which, at, byte) ->
      let _, artifact, accepts =
        List.nth (Lazy.force readers @ Lazy.force file_readers) which
      in
      let b = Bytes.of_string artifact in
      Bytes.set b (at mod Bytes.length b) (Char.chr byte);
      match accepts (Bytes.to_string b) with
      | _ -> true
      | exception e -> QCheck.Test.fail_reportf "%s" (Printexc.to_string e))

(* --- readers keep only what their answer needs --- *)

(* A trace of [n] lines: the same 100 generated events over and over,
   so that reads of 100 and of 100,000 lines end in the same state and
   any difference is what the reader kept of the lines before. *)
let generated_trace n =
  let block =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 27 |])
      (Event_gen.stream_of (QCheck.Gen.return 100))
  in
  let path = Filename.temp_file "dsas_flat" ".jsonl" in
  Out_channel.with_open_bin path (fun oc ->
      for _ = 1 to n / 100 do
        List.iter (fun e -> output_string oc (Obs.Event.to_json e ^ "\n")) block
      done);
  path

(* The reachable words, after a full major collection, of what [read]
   keeps of a trace of [n] lines. *)
let words_after n read =
  let path = generated_trace n in
  let state = read path in
  Sys.remove path;
  Gc.full_major ();
  Obj.reachable_words state

let test_readers_keep_flat_state () =
  let check path =
    let c = Obs.Check.create () in
    (match
       Obs.Artifact.fold_file Option.some (fun () line text -> Obs.Check.feed_text c ~line text) () path
     with
     | Ok _ -> ()
     | Error msg -> Alcotest.fail msg);
    Obj.repr c
  in
  let query make path =
    let r = make () in
    (match Obs.Query.read_file r path with Ok _ -> () | Error msg -> Alcotest.fail msg);
    Obj.repr r
  in
  List.iter
    (fun (name, read) -> check_int name (words_after 100 read) (words_after 100_000 read))
    [
      ("check", check);
      ("stats", query Obs.Query.summary);
      ( "query --group-by kind",
        query (fun () -> Obs.Query.group ~key:Obs.Query.By_kind ~agg:Obs.Query.Count) );
    ]

(* --- Query reading --- *)

(* Every entry a reader is fed, in order. *)
let entries () =
  let acc = ref [] in
  { Obs.Query.add = (fun e -> acc := e :: !acc); result = (fun () -> List.rev !acc) }

let summary_of events = Obs.Query.read_events (Obs.Query.summary ()) events

let test_load_missing () =
  match Obs.Query.read_file (Obs.Query.summary ()) "/no/such/file.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file loaded"

(* Every reader names the path it could not read; top too, rather than
   finding no snapshots there. *)
let test_unreadable_path_named () =
  let dir = scratch_dir () in
  let all _ = true in
  List.iter
    (fun (name, read) ->
      match read dir with
      | Error msg -> Alcotest.(check string) name (dir ^ ": Is a directory") msg
      | Ok () -> Alcotest.failf "%s: a directory read" name)
    [
      ("stats", fun f -> Result.map ignore (Obs.Query.read_file (Obs.Query.summary ()) f));
      ("check", Obs.Check.report_file ~limit:50 ~json:false);
      ("query", Obs.Query.report_groups ~keep:all ~key:None ~agg:"count" ~limit:None ~json:false);
      ("export", Obs.Export.export Obs.Export.Chrome ~out:None);
      ("top", Obs.Telemetry.top ~json:false);
    ]

let test_top_missing_file () =
  let missing = Filename.concat (scratch_dir ()) "missing.jsonl" in
  Alcotest.(check (result unit string))
    "the system's reason" (Error (missing ^ ": No such file or directory"))
    (Obs.Telemetry.top ~json:false missing)

(* A bad flag is judged before the file is opened: over a path that
   does not exist, the flag's error wins. *)
let test_flags_judged_first () =
  let missing = "/no/such/file.jsonl" and all _ = true in
  let expect name prefix = function
    | Error msg -> check_bool (name ^ ": " ^ msg) true (String.starts_with ~prefix msg)
    | Ok () -> Alcotest.failf "%s: accepted" name
  in
  expect "--agg" "bad --agg"
    (Obs.Query.report_groups ~keep:all ~key:None ~agg:"bogus" ~limit:None ~json:false missing);
  expect "--group-by" "bad --group-by"
    (Obs.Query.report_groups ~keep:all ~key:(Some "bogus") ~agg:"count" ~limit:None ~json:false
       missing);
  expect "--pair" "bad --pair"
    (Obs.Query.report_pairs ~keep:all ~spec:"nope" ~percentiles:false ~json:false missing);
  expect "--pair kind" "unknown event kind"
    (Obs.Query.report_pairs ~keep:all ~spec:"bogus,io_done" ~percentiles:false ~json:false
       missing)

let test_load_empty () =
  let path = temp_file "" in
  (match Obs.Query.read_file (Obs.Query.summary ()) path with
   | Error msg -> check_bool msg true (String.length msg > 0)
   | Ok _ -> Alcotest.fail "empty trace loaded");
  Sys.remove path

let test_load_truncated_fixture () =
  match Obs.Query.read_file (Obs.Query.summary ()) (fixture "truncated_trace.jsonl") with
  | Error msg ->
    check_bool ("mentions malformed: " ^ msg) true
      (contains_substring msg "malformed")
  | Ok _ -> Alcotest.fail "truncated trace loaded"

(* Blank and [#] lines are skipped, and a loaded trace summarises
   exactly as its events do in memory. *)
let test_load_skips_comments () =
  let events =
    Obs.Event.
      [
        ev ~t_us:3 (Fault { page = 1 });
        ev ~t_us:7 (Eviction { page = 1 });
        ev ~t_us:9 (Alloc { addr = 64; size = 8 });
      ]
  in
  let path =
    temp_file
      ("# comment line\n\n"
      ^ String.concat "" (List.map (fun e -> Obs.Event.to_json e ^ "\n") events)
      ^ "   \n# trailing comment\n")
  in
  let loaded = Obs.Query.read_file (Obs.Query.summary ()) path in
  Sys.remove path;
  match loaded with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok stats ->
    check_int "only the events" (List.length events) stats.Obs.Query.events;
    check_bool "same stats as the in-memory events" true (stats = summary_of events)

let test_load_names_bad_line () =
  let path = temp_file "{\"t_us\":1,\"ev\":\"fault\",\"page\":2}\nnot json\n" in
  let loaded = Obs.Query.read_file (Obs.Query.summary ()) path in
  Sys.remove path;
  match loaded with
  | Error msg -> check_bool ("names line 2: " ^ msg) true (contains_substring msg "line 2")
  | Ok _ -> Alcotest.fail "garbage line loaded"

(* --- summary --- *)

let test_summary_of_no_events () =
  let stats = summary_of [] in
  check_int "events" 0 stats.Obs.Query.events;
  check_int "first" 0 stats.Obs.Query.t_first_us;
  check_int "last" 0 stats.Obs.Query.t_last_us;
  check_bool "kinds" true (stats.Obs.Query.kinds = [])

let test_summary_of_events () =
  let stats = summary_of one_of_each in
  let kind_count stats name = Option.value (List.assoc_opt name stats.Obs.Query.kinds) ~default:0 in
  check_int "events" (List.length one_of_each) stats.Obs.Query.events;
  check_int "first" 0 stats.Obs.Query.t_first_us;
  check_int "last" 27 stats.Obs.Query.t_last_us;
  check_int "faults" 1 (kind_count stats "fault");
  check_int "swaps" 2 (kind_count stats "segment_swap");
  check_int "absent kind" 0 (kind_count stats "no_such");
  check_bool "zero counts omitted" true
    (List.for_all (fun (_, n) -> n > 0) stats.Obs.Query.kinds)

(* --- filtering and grouping --- *)

let sample_events =
  Obs.Event.
    [
      ev ~t_us:0 (Run_start { run = 0; seed = None; config = None });
      ev ~t_us:10 (Fault { page = 1 });
      ev ~t_us:20 (Fault { page = 2 });
      ev ~t_us:30 (Eviction { page = 1 });
      ev ~t_us:0 (Run_start { run = 1; seed = None; config = None });
      ev ~t_us:5 (Fault { page = 2 });
      ev ~t_us:15 (Alloc { addr = 64; size = 10 });
      ev ~t_us:25 (Alloc { addr = 128; size = 30 });
    ]

(* A reader that sees only the entries [keep] accepts. *)
let only keep (r : _ Obs.Query.reader) = { r with add = (fun e -> if keep e then r.add e) }

let test_run_tagging () =
  let q = Obs.Query.read_events (entries ()) sample_events in
  let length l = List.length l in
  check_int "all" 8 (length q);
  check_int "run 0" 4 (length (List.filter (Obs.Query.filter ~run:0) q));
  check_int "run 1" 4 (length (List.filter (Obs.Query.filter ~run:1) q));
  check_int "kinds" 3
    (length (List.filter (Obs.Query.filter ~kinds:[ "fault" ]) q));
  check_int "window" 2
    (length (List.filter (Obs.Query.filter ~run:0 ~since_us:10 ~until_us:20) q))

let test_group_count () =
  let group ~key ~agg = Obs.Query.read_events (Obs.Query.group ~key ~agg) sample_events in
  let rows = group ~key:Obs.Query.By_kind ~agg:Obs.Query.Count in
  check_bool "fault count" true (List.assoc_opt "fault" rows = Some 3.);
  check_bool "alloc count" true (List.assoc_opt "alloc" rows = Some 2.);
  let by_run =
    Obs.Query.read_events
      (only (Obs.Query.filter ~kinds:[ "fault" ])
         (Obs.Query.group ~key:Obs.Query.By_run ~agg:Obs.Query.Count))
      sample_events
  in
  check_bool "run split" true
    (List.assoc_opt "0" by_run = Some 2. && List.assoc_opt "1" by_run = Some 1.)

let test_group_field_aggs () =
  let group ~key ~agg = Obs.Query.read_events (Obs.Query.group ~key ~agg) sample_events in
  let sums = group ~key:Obs.Query.By_kind ~agg:(Obs.Query.Sum "size") in
  check_bool "sum over alloc sizes" true (List.assoc_opt "alloc" sums = Some 40.);
  (* events without the field contribute nothing *)
  check_bool "fault has no size" true (List.assoc_opt "fault" sums = None);
  let means = group ~key:Obs.Query.By_kind ~agg:(Obs.Query.Mean "size") in
  check_bool "mean alloc size" true (List.assoc_opt "alloc" means = Some 20.);
  let pages = group ~key:(Obs.Query.By_field "page") ~agg:Obs.Query.Count in
  check_bool "page 2 twice... plus eviction of 1" true
    (List.assoc_opt "1" pages = Some 2. && List.assoc_opt "2" pages = Some 2.)

let test_top () =
  let rows = [ ("a", 3.); ("b", 9.); ("c", 9.); ("d", 1.) ] in
  check_bool "top 2 ranked, label tiebreak" true
    (Obs.Query.top 2 rows = [ ("b", 9.); ("c", 9.) ]);
  check_bool "top larger than list" true (List.length (Obs.Query.top 10 rows) = 4)

(* --- pairing --- *)

(* Offline oracle: percentile p over raw latencies = the
   ceil(p*n)-th smallest sample. *)
let oracle_percentile latencies p =
  let sorted = List.sort compare latencies in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
  List.nth sorted (rank - 1)

let io_pairs () = Obs.Query.pair ~start_kind:"io_start" ~done_kind:"io_done"

let test_pair_fixture_oracle () =
  match Obs.Query.read_file (io_pairs ()) (fixture "pair_trace.jsonl") with
  | Error msg -> Alcotest.failf "fixture unreadable: %s" msg
  | Ok pairing ->
    (match pairing with
     | Error msg -> Alcotest.failf "pairing failed: %s" msg
     | Ok p ->
       let latencies = p.Obs.Query.latencies in
       check_bool "known latencies" true
         (List.sort compare latencies = [ 3; 9; 10; 77; 100; 1000; 2048 ]);
       check_int "unmatched starts (open across run boundary)" 1
         p.Obs.Query.unmatched_starts;
       check_int "unmatched dones (unknown req)" 1 p.Obs.Query.unmatched_dones;
       (match Obs.Query.latency_of p with
        | None -> Alcotest.fail "no latency summary"
        | Some l ->
          check_int "samples" 7 l.Obs.Query.samples;
          check_int "min exact" 3 l.Obs.Query.min_us;
          check_int "max exact" 2048 l.Obs.Query.max_us;
          check_int "p50 vs oracle" (oracle_percentile latencies 0.50)
            l.Obs.Query.p50_us;
          check_int "p90 vs oracle" (oracle_percentile latencies 0.90)
            l.Obs.Query.p90_us;
          check_int "p99 vs oracle" (oracle_percentile latencies 0.99)
            l.Obs.Query.p99_us;
          (* and the oracle values themselves are what a human expects *)
          check_int "p50 is the 4th sample" 77 l.Obs.Query.p50_us;
          check_int "p99 is the 7th sample" 2048 l.Obs.Query.p99_us))

(* Independent re-pairing of a trace: match io_start/io_done by req per
   run segment without using Query.pair. *)
let oracle_latencies entries =
  let opens = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (fun (e : Obs.Query.entry) ->
      match e.Obs.Query.ev.Obs.Event.kind with
      | Obs.Event.Run_start _ -> Hashtbl.reset opens
      | Obs.Event.Io_start { req; _ } ->
        Hashtbl.replace opens req e.Obs.Query.ev.Obs.Event.t_us
      | Obs.Event.Io_done { req; _ } ->
        (match Hashtbl.find_opt opens req with
         | Some start ->
           Hashtbl.remove opens req;
           out := (e.Obs.Query.ev.Obs.Event.t_us - start) :: !out
         | None -> ())
      | _ -> ())
    entries;
  List.rev !out

(* Feeds any reader the trace under test. *)
type source = { read : 'r. 'r Obs.Query.reader -> 'r }

let assert_pairing_matches_oracle source =
  match source.read (io_pairs ()) with
  | Error msg -> Alcotest.failf "pairing failed: %s" msg
  | Ok p ->
    let latencies = p.Obs.Query.latencies in
    let oracle = oracle_latencies (source.read (entries ())) in
    check_bool "has pairs" true (latencies <> []);
    check_bool "same latency multiset as the independent pairing" true
      (List.sort compare latencies = List.sort compare oracle);
    (match Obs.Query.latency_of p with
     | None -> Alcotest.fail "no latency summary"
     | Some l ->
       check_int "p50 vs offline oracle" (oracle_percentile latencies 0.50)
         l.Obs.Query.p50_us;
       check_int "p90 vs offline oracle" (oracle_percentile latencies 0.90)
         l.Obs.Query.p90_us;
       check_int "p99 vs offline oracle" (oracle_percentile latencies 0.99)
         l.Obs.Query.p99_us;
       check_int "min exact" (List.fold_left min max_int latencies) l.Obs.Query.min_us;
       check_int "max exact" (List.fold_left max 0 latencies) l.Obs.Query.max_us)

let test_pair_fig3_fixture () =
  let path = fixture "fig3_quick_trace.jsonl" in
  assert_pairing_matches_oracle
    {
      read =
        (fun r ->
          match Obs.Query.read_file r path with
          | Ok v -> v
          | Error msg -> Alcotest.failf "fixture unreadable: %s" msg);
    }

let test_pair_fig3_in_process () =
  let acc = ref [] in
  let obs = Obs.Sink.collect (fun e -> acc := e :: !acc) in
  ignore (Experiments.Fig3.measure ~quick:true ~obs ());
  let events = List.rev !acc in
  assert_pairing_matches_oracle { read = (fun r -> Obs.Query.read_events r events) }

let test_pair_errors () =
  let pair ~start_kind ~done_kind =
    Obs.Query.read_events (Obs.Query.pair ~start_kind ~done_kind) sample_events
  in
  (match pair ~start_kind:"nope" ~done_kind:"io_done" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown kind accepted");
  (match pair ~start_kind:"fault" ~done_kind:"eviction" with
   | Error msg ->
     check_bool ("mentions req: " ^ msg) true (contains_substring msg "req")
   | Ok _ -> Alcotest.fail "req-less kinds paired")

let test_latency_of_empty () =
  check_bool "no rows, no summary" true
    (Obs.Query.latency_of
       { Obs.Query.latencies = []; unmatched_starts = 0; unmatched_dones = 0 }
     = None)

(* --- exact percentiles --- *)

(* A synthetic pairing of exactly these latencies. *)
let pairing_of_latencies latencies =
  { Obs.Query.latencies; unmatched_starts = 0; unmatched_dones = 0 }

let test_exact_latency_fixture () =
  match Obs.Query.read_file (io_pairs ()) (fixture "pair_trace.jsonl") with
  | Error msg -> Alcotest.failf "fixture unreadable: %s" msg
  | Ok pairing ->
    (match pairing with
     | Error msg -> Alcotest.failf "pairing failed: %s" msg
     | Ok p ->
       (match Obs.Query.latency_of p with
        | None -> Alcotest.fail "no latency summary"
        | Some l ->
          (* latencies are [3; 9; 10; 77; 100; 1000; 2048] *)
          check_int "exact p50 is the 4th sample" 77 l.Obs.Query.p50_us;
          check_int "exact p90 is the 7th sample" 2048 l.Obs.Query.p90_us;
          check_int "exact p99 is the 7th sample" 2048 l.Obs.Query.p99_us;
          (* the lower bound of a sample's log2 bucket understates it *)
          let h = l.Obs.Query.hist in
          let bucketed p =
            Metrics.Histogram.lower_bound h
              (Metrics.Histogram.bucket_of h (Metrics.Histogram.percentile h p))
          in
          check_int "bucketed p50 is 77's bucket lower bound" 64 (bucketed 0.50);
          check_bool "exact >= bucketed at every percentile" true
            (l.Obs.Query.p50_us >= bucketed 0.50
             && l.Obs.Query.p90_us >= bucketed 0.90
             && l.Obs.Query.p99_us >= bucketed 0.99)))

let exact_latency_property =
  QCheck.Test.make
    ~name:"latency_of matches the sorted-array oracle on random samples"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 1 100_000))
    (fun latencies ->
      match Obs.Query.latency_of (pairing_of_latencies latencies) with
      | None -> false
      | Some l ->
        let n = List.length latencies in
        let sum = List.fold_left ( + ) 0 latencies in
        l.Obs.Query.samples = n
        && l.Obs.Query.min_us = List.fold_left min max_int latencies
        && l.Obs.Query.max_us = List.fold_left max 0 latencies
        && Float.abs (l.Obs.Query.mean_us -. (float_of_int sum /. float_of_int n))
           < 1e-6
        && l.Obs.Query.p50_us = oracle_percentile latencies 0.50
        && l.Obs.Query.p90_us = oracle_percentile latencies 0.90
        && l.Obs.Query.p99_us = oracle_percentile latencies 0.99)

(* --- metrics sink --- *)

let test_metrics_sink () =
  let reg = Obs.Registry.create () in
  let sink = Obs.Query.metrics_sink reg in
  List.iter (Obs.Sink.emit sink)
    Obs.Event.
      [
        ev ~t_us:0 (Run_start { run = 0; seed = None; config = None });
        ev ~t_us:1 (Fault { page = 1 });
        ev ~t_us:2 (Io_start { req = 0; page = 1; io = Demand });
        ev ~t_us:34 (Io_done { req = 0; page = 1; io = Demand });
        ev ~t_us:40 (Fault { page = 2 });
        ev ~t_us:41 (Io_start { req = 1; page = 2; io = Demand });
        ev ~t_us:105 (Io_done { req = 1; page = 2; io = Demand });
      ];
  let snap = Obs.Registry.snapshot reg in
  check_bool "fault counter" true
    (List.assoc_opt "ev.fault" snap.Obs.Registry.counters = Some 2);
  check_bool "io_done counter" true
    (List.assoc_opt "ev.io_done" snap.Obs.Registry.counters = Some 2);
  check_bool "gauge t_last" true
    (List.assoc_opt "t_last_us" snap.Obs.Registry.gauges = Some 105.);
  let h =
    Obs.Registry.histogram reg "io_latency_us" ~default:(fun () ->
        Metrics.Histogram.log2 ~max_exponent:30)
  in
  check_int "latency samples" 2 (Metrics.Histogram.count h);
  check_bool "latency min/max exact" true
    (Metrics.Histogram.min_value h = Some 32 && Metrics.Histogram.max_value h = Some 64)

(* The metrics artifact and [query --pair] report the same order
   statistics for the same requests: one rank rule behind both. *)
let test_metrics_artifact_percentiles_match_query () =
  let acc = ref [] in
  let reg = Obs.Registry.create () in
  let obs =
    Obs.Sink.tee (Obs.Sink.collect (fun e -> acc := e :: !acc)) (Obs.Query.metrics_sink reg)
  in
  ignore (Experiments.Fig3.measure ~quick:true ~obs ());
  match
    ( Result.to_option (Obs.Query.read_events (io_pairs ()) (List.rev !acc)),
      Obs.Json.parse (Obs.Registry.to_json reg) )
  with
  | Some p, Some doc ->
    (match Obs.Query.latency_of p with
     | None -> Alcotest.fail "no latency summary"
     | Some l ->
       let artifact key =
         List.fold_left
           (fun v k -> Option.bind v (Obs.Json.member k))
           (Some doc) [ "histograms"; "io_latency_us"; key ]
         |> Obs.Json.int
       in
       check_bool "artifact counts the pairs" true (artifact "count" = Some l.Obs.Query.samples);
       check_bool "p50" true (artifact "p50" = Some l.Obs.Query.p50_us);
       check_bool "p90" true (artifact "p90" = Some l.Obs.Query.p90_us);
       check_bool "p99" true (artifact "p99" = Some l.Obs.Query.p99_us);
       check_int "query's p50 on the fig3 quick run" 7024 l.Obs.Query.p50_us)
  | _ -> Alcotest.fail "no pairing or no artifact"

(* --- Registry.to_json --- *)

let test_registry_to_json () =
  let reg = Obs.Registry.create () in
  Obs.Registry.incr ~by:3 (Obs.Registry.counter reg "c");
  Obs.Registry.set (Obs.Registry.gauge reg "g") 2.5;
  Metrics.Stats.add (Obs.Registry.stats reg "s") 4.;
  Metrics.Stats.add (Obs.Registry.stats reg "s") 6.;
  let h =
    Obs.Registry.histogram reg "h" ~default:(fun () ->
        Metrics.Histogram.log2 ~max_exponent:10)
  in
  Metrics.Histogram.add h 5;
  Metrics.Histogram.add h 9;
  let json = Obs.Registry.to_json reg in
  match Obs.Json.parse json with
  | None -> Alcotest.failf "to_json not parseable: %s" json
  | Some t ->
    let path keys = List.fold_left (fun v k -> Option.bind v (Obs.Json.member k)) (Some t) keys in
    let num keys = Obs.Json.number (path keys) in
    check_string "schema" "dsas-metrics/1" (Option.get (Obs.Json.string (path [ "schema" ])));
    check_bool "counter" true (num [ "counters"; "c" ] = Some 3.);
    check_bool "gauge" true (num [ "gauges"; "g" ] = Some 2.5);
    check_bool "stats mean" true (num [ "stats"; "s"; "mean" ] = Some 5.);
    check_bool "stats count" true (num [ "stats"; "s"; "count" ] = Some 2.);
    check_bool "hist count" true (num [ "histograms"; "h"; "count" ] = Some 2.);
    check_bool "hist min exact" true (num [ "histograms"; "h"; "min" ] = Some 5.);
    check_bool "hist max exact" true (num [ "histograms"; "h"; "max" ] = Some 9.);
    (match path [ "histograms"; "h"; "buckets" ] with
     | Some (Obs.Json.List buckets) ->
       check_int "only non-empty buckets" 2 (List.length buckets)
     | _ -> Alcotest.fail "buckets missing");
    (* dsas-metrics/1 keeps its "series" section, always empty *)
    check_bool "series empty" true (path [ "series" ] = Some (Obs.Json.Obj []))

(* --- Prof --- *)

let test_prof_disabled_is_transparent () =
  Obs.Prof.disable ();
  Obs.Prof.reset ();
  check_int "span returns its value" 42 (Obs.Prof.span "x" (fun () -> 42));
  check_bool "no rows recorded" true (Obs.Prof.rows () = [])

let test_prof_nesting () =
  Obs.Prof.reset ();
  Obs.Prof.enable ();
  let v =
    Obs.Prof.span "outer" (fun () ->
        let a = Obs.Prof.span "inner" (fun () -> 1) in
        let b = Obs.Prof.span "inner" (fun () -> 2) in
        a + b)
  in
  Obs.Prof.disable ();
  check_int "value through nesting" 3 v;
  let rows = Obs.Prof.rows () in
  let find path = List.find_opt (fun r -> r.Obs.Prof.path = path) rows in
  (match find "outer" with
   | None -> Alcotest.fail "outer span missing"
   | Some r ->
     check_int "outer count" 1 r.Obs.Prof.count;
     check_bool "total >= self" true (r.Obs.Prof.total_ns >= r.Obs.Prof.self_ns));
  (match find "outer;inner" with
   | None -> Alcotest.fail "child path missing"
   | Some r -> check_int "inner count aggregated" 2 r.Obs.Prof.count);
  check_bool "no bare inner row" true (find "inner" = None);
  Obs.Prof.reset ();
  check_bool "reset clears" true (Obs.Prof.rows () = [])

let test_prof_exception_safety () =
  Obs.Prof.reset ();
  Obs.Prof.enable ();
  (try Obs.Prof.span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  let after = Obs.Prof.span "after" (fun () -> ()) in
  Obs.Prof.disable ();
  ignore after;
  let paths = List.map (fun r -> r.Obs.Prof.path) (Obs.Prof.rows ()) in
  check_bool "raising span still recorded" true (List.mem "boom" paths);
  check_bool "stack unwound: next span is a root" true (List.mem "after" paths);
  check_bool "no nesting residue" true
    (not (List.exists (fun p -> p = "boom;after") paths));
  Obs.Prof.reset ()

(* A span is charged the words it allocates, not the collections that
   happen to land in it: an array of 1,000 words (1,001 with its
   header, made on the major heap) is counted even when no minor
   collection runs inside the span. *)
let test_prof_alloc_words () =
  Obs.Prof.reset ();
  Obs.Prof.enable ();
  ignore (Obs.Prof.span "make" (fun () -> Sys.opaque_identity (Array.make 1000 0)));
  Obs.Prof.disable ();
  (match List.find_opt (fun r -> r.Obs.Prof.path = "make") (Obs.Prof.rows ()) with
   | None -> Alcotest.fail "span not recorded"
   | Some r ->
     check_bool (Printf.sprintf "at least 1,001 words (got %.0f)" r.Obs.Prof.alloc_words) true
       (r.Obs.Prof.alloc_words >= 1001.));
  Obs.Prof.reset ()

let test_prof_outputs () =
  Obs.Prof.reset ();
  Obs.Prof.enable ();
  Obs.Prof.span "a" (fun () -> Obs.Prof.span "b" (fun () -> Sys.opaque_identity ()));
  Obs.Prof.disable ();
  let folded = Obs.Prof.folded () in
  let lines = String.split_on_char '\n' (String.trim folded) in
  check_int "one folded line per path" 2 (List.length lines);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "bad folded line: %s" line
      | Some i ->
        let n = String.sub line (i + 1) (String.length line - i - 1) in
        check_bool ("numeric self time: " ^ line) true (int_of_string_opt n <> None))
    lines;
  (match Obs.Json.parse (Obs.Prof.to_json ()) with
   | Some t ->
     (match Obs.Json.member "spans" t with
      | Some (Obs.Json.List spans) -> check_int "two spans in json" 2 (List.length spans)
      | _ -> Alcotest.fail "spans array missing")
   | None -> Alcotest.fail "prof json not parseable");
  Obs.Prof.reset ()

(* Round-trip: parse the folded-stacks text back and check it carries
   exactly the profiler's rows — same paths, same self times.  The
   format is load-bearing (flamegraph.pl/speedscope input), so a
   formatting regression must fail loudly. *)
let test_prof_folded_roundtrip () =
  Obs.Prof.reset ();
  Obs.Prof.enable ();
  Obs.Prof.span "fetch" (fun () ->
      Obs.Prof.span "seek" (fun () -> Sys.opaque_identity ());
      Obs.Prof.span "transfer" (fun () -> Sys.opaque_identity ()));
  Obs.Prof.span "select victim" (fun () -> Sys.opaque_identity ());
  Obs.Prof.disable ();
  let parse_line line =
    match String.rindex_opt line ' ' with
    | None -> Alcotest.failf "unsplittable folded line: %s" line
    | Some i ->
      let path = String.sub line 0 i in
      let n = String.sub line (i + 1) (String.length line - i - 1) in
      (match int_of_string_opt n with
       | Some self_us -> (path, self_us)
       | None -> Alcotest.failf "non-numeric self time: %s" line)
  in
  let parsed =
    Obs.Prof.folded () |> String.trim |> String.split_on_char '\n'
    |> List.map parse_line
  in
  let rows = Obs.Prof.rows () in
  check_int "one line per row" (List.length rows) (List.length parsed);
  List.iter
    (fun (r : Obs.Prof.row) ->
      match List.assoc_opt r.Obs.Prof.path parsed with
      | None -> Alcotest.failf "row %s missing from folded output" r.Obs.Prof.path
      | Some self_us ->
        check_int ("self time of " ^ r.Obs.Prof.path) (r.Obs.Prof.self_ns / 1000)
          self_us)
    rows;
  (* paths with spaces survive: only the final field is the number *)
  check_bool "multi-word path parsed back" true
    (List.mem_assoc "select victim" parsed);
  Obs.Prof.reset ()

(* The overhead guard: a disabled span must be invisible.  Time a
   substantial body (a 1000-ref fault simulation, ~ms scale) bare and
   wrapped in a disabled span, back to back, alternating which arm
   goes first; the median per-pair ratio sheds scheduler noise that a
   minimum over a few samples cannot resolve at 2%.  The wrapped arm
   may be at most 2% slower. *)
let test_prof_disabled_overhead () =
  Obs.Prof.disable ();
  Obs.Prof.reset ();
  let trace = Workload.Trace.loop ~length:1000 ~extent:64 ~working_set:40 in
  let body () =
    ignore
      (Sys.opaque_identity
         (Paging.Fault_sim.run ~frames:32 ~policy:(Paging.Replacement.lru ()) trace))
  in
  let wrapped () = Obs.Prof.span "guard" body in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  (* warm up both paths *)
  body ();
  wrapped ();
  let pairs = 60 in
  let ratios =
    Array.init pairs (fun i ->
        if i land 1 = 0 then
          let d = time body in
          time wrapped /. d
        else
          let w = time wrapped in
          w /. time body)
  in
  Array.sort Float.compare ratios;
  let ratio = (ratios.((pairs / 2) - 1) +. ratios.(pairs / 2)) /. 2. in
  check_bool
    (Printf.sprintf "disabled span overhead %.4fx <= 1.02x (median of %d pairs)" ratio
       pairs)
    true (ratio <= 1.02);
  check_bool "disabled spans recorded nothing" true (Obs.Prof.rows () = [])

let () =
  Alcotest.run "query"
    [
      ( "json-tree",
        [
          Alcotest.test_case "nested documents parse" `Quick test_parse_nested;
          Alcotest.test_case "malformed documents rejected" `Quick test_parse_rejects;
          Alcotest.test_case "printer bytes pinned" `Quick test_printer_bytes;
          QCheck_alcotest.to_alcotest json_roundtrip_property;
        ] );
      ( "readers",
        [
          Alcotest.test_case "every strict prefix refused" `Quick test_readers_refuse_prefixes;
          QCheck_alcotest.to_alcotest readers_total_property;
          Alcotest.test_case "state flat in the lines read" `Quick test_readers_keep_flat_state;
        ] );
      ( "load",
        [
          Alcotest.test_case "missing file is an error" `Quick test_load_missing;
          Alcotest.test_case "unreadable path named" `Quick test_unreadable_path_named;
          Alcotest.test_case "top names a missing file" `Quick test_top_missing_file;
          Alcotest.test_case "bad flags judged before the file" `Quick test_flags_judged_first;
          Alcotest.test_case "empty trace is an error" `Quick test_load_empty;
          Alcotest.test_case "truncated line is an error" `Quick
            test_load_truncated_fixture;
          Alcotest.test_case "comments and blanks skipped" `Quick test_load_skips_comments;
          Alcotest.test_case "bad line named by number" `Quick test_load_names_bad_line;
        ] );
      ( "summary",
        [
          Alcotest.test_case "of_events" `Quick test_summary_of_events;
          Alcotest.test_case "of no events" `Quick test_summary_of_no_events;
        ] );
      ( "filter-group",
        [
          Alcotest.test_case "run tagging and filters" `Quick test_run_tagging;
          Alcotest.test_case "group-by kind/run with count" `Quick test_group_count;
          Alcotest.test_case "field grouping, sum and mean" `Quick test_group_field_aggs;
          Alcotest.test_case "top-N ranking" `Quick test_top;
        ] );
      ( "pairing",
        [
          Alcotest.test_case "hand-built fixture matches the offline oracle" `Quick
            test_pair_fixture_oracle;
          Alcotest.test_case "committed fig3 trace matches the oracle" `Quick
            test_pair_fig3_fixture;
          Alcotest.test_case "in-process fig3 run matches the oracle" `Quick
            test_pair_fig3_in_process;
          Alcotest.test_case "bad pair specs are errors" `Quick test_pair_errors;
          Alcotest.test_case "no pairs, no latency summary" `Quick test_latency_of_empty;
        ] );
      ( "exact-percentiles",
        [
          Alcotest.test_case "fixture: exact beats bucket lower bounds" `Quick
            test_exact_latency_fixture;
          QCheck_alcotest.to_alcotest exact_latency_property;
        ] );
      ( "registry",
        [
          Alcotest.test_case "metrics sink folds the stream" `Quick test_metrics_sink;
          Alcotest.test_case "artifact percentiles are query's on fig3" `Quick
            test_metrics_artifact_percentiles_match_query;
          Alcotest.test_case "full registry export round-trips" `Quick
            test_registry_to_json;
        ] );
      ( "prof",
        [
          Alcotest.test_case "disabled profiler is transparent" `Quick
            test_prof_disabled_is_transparent;
          Alcotest.test_case "nested spans aggregate by path" `Quick test_prof_nesting;
          Alcotest.test_case "spans survive exceptions" `Quick test_prof_exception_safety;
          Alcotest.test_case "span allocation counted to the word" `Quick test_prof_alloc_words;
          Alcotest.test_case "folded and JSON outputs" `Quick test_prof_outputs;
          Alcotest.test_case "folded stacks round-trip to the rows" `Quick
            test_prof_folded_roundtrip;
          Alcotest.test_case "disabled span adds <2% overhead" `Quick
            test_prof_disabled_overhead;
        ] );
    ]
