(* Tests for the analysis half of observability: Obs.Query (filters,
   grouping, io pairing, latency percentiles), Obs.Bench (results files
   and regression diffing), Obs.Prof (span profiler, including the
   disabled-overhead guard), Obs.Json.parse_tree, and
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

(* --- Json.parse_tree --- *)

let test_parse_tree () =
  let doc =
    {|{"s":"hi","n":3.5,"i":7,"b":true,"nil":null,"arr":[1,2,[3]],"obj":{"k":"v"}}|}
  in
  match Obs.Json.parse_tree doc with
  | None -> Alcotest.fail "nested doc did not parse"
  | Some t ->
    check_string "str" "hi" (Option.get (Obs.Json.tree_str t "s"));
    check_bool "num" true (Obs.Json.tree_num t "n" = Some 3.5);
    check_bool "int as num" true (Obs.Json.tree_num t "i" = Some 7.);
    check_bool "bool" true (Obs.Json.tree_mem t "b" = Some (Obs.Json.TBool true));
    check_bool "null" true (Obs.Json.tree_mem t "nil" = Some Obs.Json.TNull);
    (match Obs.Json.tree_mem t "arr" with
     | Some (Obs.Json.TArr [ TNum 1.; TNum 2.; TArr [ TNum 3. ] ]) -> ()
     | _ -> Alcotest.fail "array shape");
    (match Obs.Json.tree_mem t "obj" with
     | Some inner -> check_string "nested obj" "v" (Option.get (Obs.Json.tree_str inner "k"))
     | None -> Alcotest.fail "nested obj missing")

let test_parse_tree_rejects () =
  List.iter
    (fun s -> check_bool s true (Obs.Json.parse_tree s = None))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "{} trailing"; "tru"; "{\"a\":1,}" ]

(* --- Query loading --- *)

let test_load_missing () =
  match Obs.Query.load "/no/such/file.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file loaded"

let test_load_empty () =
  let path = temp_file "" in
  (match Obs.Query.load path with
   | Error msg -> check_bool msg true (String.length msg > 0)
   | Ok _ -> Alcotest.fail "empty trace loaded");
  Sys.remove path

let test_load_truncated_fixture () =
  match Obs.Query.load (fixture "truncated_trace.jsonl") with
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
  let loaded = Obs.Query.load path in
  Sys.remove path;
  match loaded with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok q ->
    check_int "only the events" (List.length events) (Obs.Query.length q);
    check_bool "same stats as Summary.of_events" true
      (Obs.Query.to_summary q = Obs.Summary.of_events events)

let test_load_names_bad_line () =
  let path = temp_file "{\"t_us\":1,\"ev\":\"fault\",\"page\":2}\nnot json\n" in
  let loaded = Obs.Query.load path in
  Sys.remove path;
  match loaded with
  | Error msg -> check_bool ("names line 2: " ^ msg) true (contains_substring msg "line 2")
  | Ok _ -> Alcotest.fail "garbage line loaded"

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

let test_run_tagging () =
  let q = Obs.Query.of_events sample_events in
  check_int "all" 8 (Obs.Query.length q);
  check_int "run 0" 4 (Obs.Query.length (Obs.Query.filter ~run:0 q));
  check_int "run 1" 4 (Obs.Query.length (Obs.Query.filter ~run:1 q));
  check_int "kinds" 3
    (Obs.Query.length (Obs.Query.filter ~kinds:[ "fault" ] q));
  check_int "window" 2
    (Obs.Query.length (Obs.Query.filter ~run:0 ~since_us:10 ~until_us:20 q))

let test_group_count () =
  let q = Obs.Query.of_events sample_events in
  let rows = Obs.Query.group q ~key:Obs.Query.By_kind ~agg:Obs.Query.Count in
  check_bool "fault count" true (List.assoc_opt "fault" rows = Some 3.);
  check_bool "alloc count" true (List.assoc_opt "alloc" rows = Some 2.);
  let by_run =
    Obs.Query.group
      (Obs.Query.filter ~kinds:[ "fault" ] q)
      ~key:Obs.Query.By_run ~agg:Obs.Query.Count
  in
  check_bool "run split" true
    (List.assoc_opt "0" by_run = Some 2. && List.assoc_opt "1" by_run = Some 1.)

let test_group_field_aggs () =
  let q = Obs.Query.of_events sample_events in
  let sums = Obs.Query.group q ~key:Obs.Query.By_kind ~agg:(Obs.Query.Sum "size") in
  check_bool "sum over alloc sizes" true (List.assoc_opt "alloc" sums = Some 40.);
  (* events without the field contribute nothing *)
  check_bool "fault has no size" true (List.assoc_opt "fault" sums = None);
  let means = Obs.Query.group q ~key:Obs.Query.By_kind ~agg:(Obs.Query.Mean "size") in
  check_bool "mean alloc size" true (List.assoc_opt "alloc" means = Some 20.);
  let pages = Obs.Query.group q ~key:(Obs.Query.By_field "page") ~agg:Obs.Query.Count in
  check_bool "page 2 twice... plus eviction of 1" true
    (List.assoc_opt "1" pages = Some 2. && List.assoc_opt "2" pages = Some 2.)

let test_top () =
  let rows = [ ("a", 3.); ("b", 9.); ("c", 9.); ("d", 1.) ] in
  check_bool "top 2 ranked, label tiebreak" true
    (Obs.Query.top 2 rows = [ ("b", 9.); ("c", 9.) ]);
  check_bool "top larger than list" true (List.length (Obs.Query.top 10 rows) = 4)

(* --- pairing --- *)

(* The log2-bucket representative Histogram.percentile returns: the
   lower bound of the power-of-two bucket holding the value. *)
let log2_bucket_value v =
  if v <= 0 then 0
  else begin
    let rec bits acc x = if x = 0 then acc else bits (acc + 1) (x lsr 1) in
    1 lsl (bits 0 v - 1)
  end

(* Offline oracle: percentile p over raw latencies = the
   ceil(p*n)-th smallest sample, then bucketed like the histogram. *)
let oracle_percentile latencies p =
  let sorted = List.sort compare latencies in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
  log2_bucket_value (List.nth sorted (rank - 1))

let test_pair_fixture_oracle () =
  match Obs.Query.load (fixture "pair_trace.jsonl") with
  | Error msg -> Alcotest.failf "fixture unreadable: %s" msg
  | Ok q ->
    (match Obs.Query.pair q ~start_kind:"io_start" ~done_kind:"io_done" with
     | Error msg -> Alcotest.failf "pairing failed: %s" msg
     | Ok p ->
       let latencies =
         List.map (fun r -> r.Obs.Query.latency_us) p.Obs.Query.rows
       in
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
          check_int "p50 is 77's bucket" 64 l.Obs.Query.p50_us;
          check_int "p99 is 2048's bucket" 2048 l.Obs.Query.p99_us))

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

let assert_pairing_matches_oracle q =
  match Obs.Query.pair q ~start_kind:"io_start" ~done_kind:"io_done" with
  | Error msg -> Alcotest.failf "pairing failed: %s" msg
  | Ok p ->
    let latencies = List.map (fun r -> r.Obs.Query.latency_us) p.Obs.Query.rows in
    let oracle = oracle_latencies (Obs.Query.entries q) in
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
  match Obs.Query.load (fixture "fig3_quick_trace.jsonl") with
  | Error msg -> Alcotest.failf "fixture unreadable: %s" msg
  | Ok q -> assert_pairing_matches_oracle q

let test_pair_fig3_in_process () =
  let acc = ref [] in
  let obs = Obs.Sink.collect (fun e -> acc := e :: !acc) in
  ignore (Experiments.Fig3.measure ~quick:true ~obs ());
  assert_pairing_matches_oracle (Obs.Query.of_events (List.rev !acc))

let test_pair_errors () =
  let q = Obs.Query.of_events sample_events in
  (match Obs.Query.pair q ~start_kind:"nope" ~done_kind:"io_done" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown kind accepted");
  (match Obs.Query.pair q ~start_kind:"fault" ~done_kind:"eviction" with
   | Error msg ->
     check_bool ("mentions req: " ^ msg) true (contains_substring msg "req")
   | Ok _ -> Alcotest.fail "req-less kinds paired")

let test_latency_of_empty () =
  check_bool "no rows, no summary" true
    (Obs.Query.latency_of
       { Obs.Query.rows = []; unmatched_starts = 0; unmatched_dones = 0 }
     = None);
  check_bool "no rows, no exact summary" true
    (Obs.Query.exact_latency_of
       { Obs.Query.rows = []; unmatched_starts = 0; unmatched_dones = 0 }
     = None)

(* --- exact percentiles --- *)

(* A synthetic pairing whose rows carry exactly these latencies. *)
let pairing_of_latencies latencies =
  {
    Obs.Query.rows =
      List.mapi
        (fun i l ->
          {
            Obs.Query.p_run = 0;
            req = i;
            io = "";
            start_us = 0;
            finish_us = l;
            latency_us = l;
          })
        latencies;
    unmatched_starts = 0;
    unmatched_dones = 0;
  }

(* The unbucketed oracle: percentile p = the ceil(p*n)-th smallest raw
   sample (no log2 rounding, unlike oracle_percentile above). *)
let exact_oracle latencies p =
  let sorted = List.sort compare latencies in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
  List.nth sorted (rank - 1)

let test_exact_latency_fixture () =
  match Obs.Query.load (fixture "pair_trace.jsonl") with
  | Error msg -> Alcotest.failf "fixture unreadable: %s" msg
  | Ok q ->
    (match Obs.Query.pair q ~start_kind:"io_start" ~done_kind:"io_done" with
     | Error msg -> Alcotest.failf "pairing failed: %s" msg
     | Ok p ->
       (match Obs.Query.exact_latency_of p with
        | None -> Alcotest.fail "no exact latency summary"
        | Some l ->
          (* latencies are [3; 9; 10; 77; 100; 1000; 2048] *)
          check_int "exact p50 is the 4th sample" 77 l.Obs.Query.p50_us;
          check_int "exact p90 is the 7th sample" 2048 l.Obs.Query.p90_us;
          check_int "exact p99 is the 7th sample" 2048 l.Obs.Query.p99_us;
          (* the bucketed view of the same pairing understates p50 *)
          (match Obs.Query.latency_of p with
           | None -> Alcotest.fail "no bucketed summary"
           | Some b ->
             check_int "bucketed p50 is 77's bucket lower bound" 64
               b.Obs.Query.p50_us;
             check_bool "exact >= bucketed at every percentile" true
               (l.Obs.Query.p50_us >= b.Obs.Query.p50_us
                && l.Obs.Query.p90_us >= b.Obs.Query.p90_us
                && l.Obs.Query.p99_us >= b.Obs.Query.p99_us))))

let exact_latency_property =
  QCheck.Test.make
    ~name:"exact_latency_of matches the sorted-array oracle on random samples"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 1 100_000))
    (fun latencies ->
      match Obs.Query.exact_latency_of (pairing_of_latencies latencies) with
      | None -> false
      | Some l ->
        let n = List.length latencies in
        let sum = List.fold_left ( + ) 0 latencies in
        l.Obs.Query.samples = n
        && l.Obs.Query.min_us = List.fold_left min max_int latencies
        && l.Obs.Query.max_us = List.fold_left max 0 latencies
        && Float.abs (l.Obs.Query.mean_us -. (float_of_int sum /. float_of_int n))
           < 1e-6
        && l.Obs.Query.p50_us = exact_oracle latencies 0.50
        && l.Obs.Query.p90_us = exact_oracle latencies 0.90
        && l.Obs.Query.p99_us = exact_oracle latencies 0.99)

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
  Obs.Series.sample (Obs.Registry.series reg "ts") ~t_us:1 10.;
  Obs.Series.sample (Obs.Registry.series reg "ts") ~t_us:2 20.;
  let json = Obs.Registry.to_json reg in
  match Obs.Json.parse_tree json with
  | None -> Alcotest.failf "to_json not parseable: %s" json
  | Some t ->
    check_string "schema" "dsas-metrics/1" (Option.get (Obs.Json.tree_str t "schema"));
    let counters = Option.get (Obs.Json.tree_mem t "counters") in
    check_bool "counter" true (Obs.Json.tree_num counters "c" = Some 3.);
    let gauges = Option.get (Obs.Json.tree_mem t "gauges") in
    check_bool "gauge" true (Obs.Json.tree_num gauges "g" = Some 2.5);
    let s = Option.get (Obs.Json.tree_mem (Option.get (Obs.Json.tree_mem t "stats")) "s") in
    check_bool "stats mean" true (Obs.Json.tree_num s "mean" = Some 5.);
    check_bool "stats count" true (Obs.Json.tree_num s "count" = Some 2.);
    let h' =
      Option.get (Obs.Json.tree_mem (Option.get (Obs.Json.tree_mem t "histograms")) "h")
    in
    check_bool "hist count" true (Obs.Json.tree_num h' "count" = Some 2.);
    check_bool "hist min exact" true (Obs.Json.tree_num h' "min" = Some 5.);
    check_bool "hist max exact" true (Obs.Json.tree_num h' "max" = Some 9.);
    (match Obs.Json.tree_mem h' "buckets" with
     | Some (Obs.Json.TArr buckets) ->
       check_int "only non-empty buckets" 2 (List.length buckets)
     | _ -> Alcotest.fail "buckets missing");
    (match Obs.Json.tree_mem (Option.get (Obs.Json.tree_mem t "series")) "ts" with
     | Some (Obs.Json.TArr [ TArr [ TNum 1.; TNum 10. ]; TArr [ TNum 2.; TNum 20. ] ]) -> ()
     | _ -> Alcotest.fail "series points wrong")

(* --- Bench --- *)

let test_bench_roundtrip () =
  let r =
    {
      Obs.Bench.clock = "monotonic";
      quick = false;
      results =
        [
          { Obs.Bench.name = "a"; ns_per_run = 12.5; r_square = Some 0.99 };
          { Obs.Bench.name = "b"; ns_per_run = 9000.; r_square = None };
        ];
    }
  in
  let path = temp_file (Obs.Bench.to_json r) in
  (match Obs.Bench.load path with
   | Error msg -> Alcotest.failf "round-trip load failed: %s" msg
   | Ok back -> check_bool "round-trip" true (back = r));
  Sys.remove path

let test_bench_load_errors () =
  (match Obs.Bench.load "/no/such/bench.json" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing file loaded");
  let garbage = temp_file "not json at all" in
  (match Obs.Bench.load garbage with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "garbage loaded");
  Sys.remove garbage;
  let wrong = temp_file {|{"schema":"other/9","results":[]}|} in
  (match Obs.Bench.load wrong with
   | Error msg ->
     check_bool ("mentions schema: " ^ msg) true (contains_substring msg "schema")
   | Ok _ -> Alcotest.fail "wrong schema loaded");
  Sys.remove wrong

let test_bench_diff_identical () =
  match Obs.Bench.load (fixture "bench_base.json") with
  | Error msg -> Alcotest.failf "fixture unreadable: %s" msg
  | Ok r ->
    let c = Obs.Bench.compare_results ~threshold_pct:0.5 ~old_r:r ~new_r:r in
    check_bool "no regressions on identical inputs" true
      (Obs.Bench.regressions c = []);
    check_int "all kernels compared" 4 (List.length c.Obs.Bench.verdicts);
    check_bool "nothing missing" true
      (c.Obs.Bench.only_old = [] && c.Obs.Bench.only_new = [])

let test_bench_diff_slowdown () =
  match
    ( Obs.Bench.load (fixture "bench_base.json"),
      Obs.Bench.load (fixture "bench_slow20.json") )
  with
  | Error msg, _ | _, Error msg -> Alcotest.failf "fixture unreadable: %s" msg
  | Ok old_r, Ok new_r ->
    let c = Obs.Bench.compare_results ~threshold_pct:10. ~old_r ~new_r in
    (match Obs.Bench.regressions c with
     | [ v ] ->
       check_string "the 20%-slower kernel" "k/beta" v.Obs.Bench.v_name;
       check_bool "delta near +20%" true
         (Float.abs (v.Obs.Bench.delta_pct -. 20.) < 0.5)
     | vs -> Alcotest.failf "expected exactly one regression, got %d" (List.length vs));
    check_bool "retired kernel reported" true (c.Obs.Bench.only_old = [ "k/retired" ]);
    check_bool "new kernel reported" true (c.Obs.Bench.only_new = [ "k/new-kernel" ]);
    (* ... and at a lenient threshold the same pair passes *)
    let lenient = Obs.Bench.compare_results ~threshold_pct:25. ~old_r ~new_r in
    check_bool "lenient threshold passes" true (Obs.Bench.regressions lenient = [])

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
  (match Obs.Json.parse_tree (Obs.Prof.to_json ()) with
   | Some t ->
     (match Obs.Json.tree_mem t "spans" with
      | Some (Obs.Json.TArr spans) -> check_int "two spans in json" 2 (List.length spans)
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
          Alcotest.test_case "nested documents parse" `Quick test_parse_tree;
          Alcotest.test_case "malformed documents rejected" `Quick test_parse_tree_rejects;
        ] );
      ( "load",
        [
          Alcotest.test_case "missing file is an error" `Quick test_load_missing;
          Alcotest.test_case "empty trace is an error" `Quick test_load_empty;
          Alcotest.test_case "truncated line is an error" `Quick
            test_load_truncated_fixture;
          Alcotest.test_case "comments and blanks skipped" `Quick test_load_skips_comments;
          Alcotest.test_case "bad line named by number" `Quick test_load_names_bad_line;
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
          Alcotest.test_case "full registry export round-trips" `Quick
            test_registry_to_json;
        ] );
      ( "bench",
        [
          Alcotest.test_case "results round-trip through JSON" `Quick test_bench_roundtrip;
          Alcotest.test_case "load rejects bad files" `Quick test_bench_load_errors;
          Alcotest.test_case "identical inputs: no regression" `Quick
            test_bench_diff_identical;
          Alcotest.test_case "20% slowdown fixture detected" `Quick
            test_bench_diff_slowdown;
        ] );
      ( "prof",
        [
          Alcotest.test_case "disabled profiler is transparent" `Quick
            test_prof_disabled_is_transparent;
          Alcotest.test_case "nested spans aggregate by path" `Quick test_prof_nesting;
          Alcotest.test_case "spans survive exceptions" `Quick test_prof_exception_safety;
          Alcotest.test_case "folded and JSON outputs" `Quick test_prof_outputs;
          Alcotest.test_case "folded stacks round-trip to the rows" `Quick
            test_prof_folded_roundtrip;
          Alcotest.test_case "disabled span adds <2% overhead" `Quick
            test_prof_disabled_overhead;
        ] );
    ]
