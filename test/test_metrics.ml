(* Tests for the metrics library. *)

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

(* --- Stats --- *)

let test_stats_basic () =
  let s = Metrics.Stats.create () in
  List.iter (Metrics.Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_int "count" 8 (Metrics.Stats.count s);
  check_float "mean" 5. (Metrics.Stats.mean s);
  check_float "stddev" 2. (Metrics.Stats.stddev s);
  check_float "min" 2. (Metrics.Stats.min s);
  check_float "max" 9. (Metrics.Stats.max s);
  check_float "total" 40. (Metrics.Stats.total s)

let test_stats_empty () =
  let s = Metrics.Stats.create () in
  check_float "mean 0" 0. (Metrics.Stats.mean s);
  check_float "variance 0" 0. (Metrics.Stats.variance s)

let stats_matches_direct =
  QCheck.Test.make ~name:"stats mean matches direct computation" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Metrics.Stats.create () in
      List.iter (Metrics.Stats.add s) xs;
      let direct = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      abs_float (Metrics.Stats.mean s -. direct) < 1e-6 *. (1. +. abs_float direct))

(* --- Histogram --- *)

let test_histogram_linear () =
  let h = Metrics.Histogram.linear ~lo:0 ~hi:100 ~buckets:10 in
  List.iter (Metrics.Histogram.add h) [ 5; 15; 15; 95; 200; -3 ];
  check_int "count" 6 (Metrics.Histogram.count h);
  let counts = Metrics.Histogram.bucket_counts h in
  check_int "bucket 0 holds 5 and clamped -3" 2 (snd counts.(0));
  check_int "bucket 1 holds both 15s" 2 (snd counts.(1));
  check_int "last bucket holds 95 and clamped 200" 2 (snd counts.(9))

let test_histogram_log2 () =
  let h = Metrics.Histogram.log2 ~max_exponent:10 in
  List.iter (Metrics.Histogram.add h) [ 0; 1; 2; 3; 4; 7; 8; 1024; 100000 ];
  let counts = Metrics.Histogram.bucket_counts h in
  check_int "zero bucket" 1 (snd counts.(0));
  check_int "one bucket" 1 (snd counts.(1));
  check_int "[2,4)" 2 (snd counts.(2));
  check_int "[4,8)" 2 (snd counts.(3));
  check_int "[8,16)" 1 (snd counts.(4))

let test_histogram_percentile () =
  let h = Metrics.Histogram.linear ~lo:0 ~hi:100 ~buckets:100 in
  for i = 0 to 99 do
    Metrics.Histogram.add h i
  done;
  check_int "median" 49 (Metrics.Histogram.percentile h 0.5);
  check_int "p99" 98 (Metrics.Histogram.percentile h 0.99);
  check_int "min" 0 (Metrics.Histogram.percentile h 0.0)

let test_histogram_min_max_exact () =
  let h = Metrics.Histogram.log2 ~max_exponent:20 in
  check_bool "empty min" true (Metrics.Histogram.min_value h = None);
  check_bool "empty max" true (Metrics.Histogram.max_value h = None);
  List.iter (Metrics.Histogram.add h) [ 100; 3; 77777 ];
  (* buckets would round these to powers of two; min/max stay exact *)
  check_bool "min exact" true (Metrics.Histogram.min_value h = Some 3);
  check_bool "max exact" true (Metrics.Histogram.max_value h = Some 77777)

let test_histogram_percentiles_list () =
  let h = Metrics.Histogram.linear ~lo:0 ~hi:100 ~buckets:100 in
  for i = 0 to 99 do
    Metrics.Histogram.add h i
  done;
  check_bool "batch = pointwise" true
    (Metrics.Histogram.percentiles h [ 0.5; 0.9; 0.99 ]
    = [ (0.5, 49); (0.9, 89); (0.99, 98) ])

(* Oracle for [percentile]: the ceil(p*n)-th smallest raw sample
   itself, whatever the buckets.  The property must hold for any sample
   set and either bucketing scheme. *)
let oracle_percentile samples p =
  let sorted = List.sort compare samples in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
  List.nth sorted (rank - 1)

let histogram_percentile_matches_oracle =
  let gen =
    QCheck.pair
      (QCheck.list_of_size QCheck.Gen.(int_range 1 200) (QCheck.int_range 0 100_000))
      (QCheck.float_range 0.0 1.0)
  in
  QCheck.Test.make ~name:"histogram percentile matches sorted-array oracle" ~count:300
    gen
    (fun (samples, p) ->
      let log_h = Metrics.Histogram.log2 ~max_exponent:20 in
      let lin_h = Metrics.Histogram.linear ~lo:0 ~hi:100_000 ~buckets:64 in
      (* a query halfway sorts the samples so far; the rest arrive after *)
      List.iteri
        (fun i v ->
          if i = List.length samples / 2 then
            ignore (Metrics.Histogram.percentile log_h p + Metrics.Histogram.percentile lin_h p);
          Metrics.Histogram.add log_h v;
          Metrics.Histogram.add lin_h v)
        samples;
      Metrics.Histogram.percentile log_h p = oracle_percentile samples p
      && Metrics.Histogram.percentile lin_h p = oracle_percentile samples p)

(* --- Space_time --- *)

let test_space_time () =
  let st = Metrics.Space_time.create () in
  Metrics.Space_time.accrue st ~words:100 ~dt:10 Metrics.Space_time.Active;
  Metrics.Space_time.accrue st ~words:100 ~dt:30 Metrics.Space_time.Waiting;
  check_float "active" 1000. (Metrics.Space_time.active st);
  check_float "waiting" 3000. (Metrics.Space_time.waiting st);
  check_float "total" 4000. (Metrics.Space_time.total st);
  check_float "waiting fraction" 0.75 (Metrics.Space_time.waiting_fraction st)

let test_space_time_empty () =
  let st = Metrics.Space_time.create () in
  check_float "empty fraction" 0. (Metrics.Space_time.waiting_fraction st)

(* --- Timeline --- *)

let test_timeline_records_and_renders () =
  let tl = Metrics.Timeline.create () in
  check_int "empty" 0 (Metrics.Timeline.segments tl);
  Alcotest.(check string) "empty render" "(empty timeline)\n" (Metrics.Timeline.render tl);
  Metrics.Timeline.record tl ~at:0 ~dt:50 ~words:100 Metrics.Space_time.Active;
  Metrics.Timeline.record tl ~at:50 ~dt:50 ~words:200 Metrics.Space_time.Waiting;
  Metrics.Timeline.record tl ~at:100 ~dt:0 ~words:999 Metrics.Space_time.Active;
  check_int "zero-length ignored" 2 (Metrics.Timeline.segments tl);
  check_int "span" 100 (Metrics.Timeline.span_us tl);
  let out = Metrics.Timeline.render ~width:10 ~height:4 tl in
  check_bool "active columns" true (String.contains out '#');
  check_bool "waiting columns" true (String.contains out '.');
  (* The first half is active, the second waiting: '#' must appear
     before '.' on the bottom row. *)
  let lines = String.split_on_char '\n' out in
  let bottom = List.nth lines 4 in
  check_bool "active left of waiting" true
    (String.index bottom '#' < String.index bottom '.')

let test_timeline_heights_follow_words () =
  let tl = Metrics.Timeline.create () in
  Metrics.Timeline.record tl ~at:0 ~dt:10 ~words:50 Metrics.Space_time.Active;
  Metrics.Timeline.record tl ~at:10 ~dt:10 ~words:100 Metrics.Space_time.Active;
  let out = Metrics.Timeline.render ~width:2 ~height:4 tl in
  let lines = String.split_on_char '\n' out in
  (* Top row: only the 100-word column reaches it. *)
  let top = List.nth lines 1 and bottom = List.nth lines 4 in
  let cell line i = line.[String.index line '|' + 1 + i] in
  check_bool "short column absent at top" true (cell top 0 = ' ' && cell top 1 = '#');
  check_bool "both present at bottom" true (cell bottom 0 = '#' && cell bottom 1 = '#')

let test_timeline_merges_continuations () =
  let open Metrics in
  let tl = Timeline.create () in
  let record at dt words state = Timeline.record tl ~at ~dt ~words state in
  record 0 10 64 Space_time.Active;
  record 10 5 64 Space_time.Active;
  record 15 0 128 Space_time.Waiting;
  record 15 5 64 Space_time.Active;
  check_int "contiguous equal segments are one" 1 (Timeline.segments tl);
  check_int "span kept" 20 (Timeline.span_us tl);
  record 25 5 64 Space_time.Active;
  check_int "a gap starts a segment" 2 (Timeline.segments tl);
  record 30 5 64 Space_time.Waiting;
  check_int "a different state starts a segment" 3 (Timeline.segments tl);
  record 35 5 128 Space_time.Waiting;
  check_int "a different word count starts a segment" 4 (Timeline.segments tl);
  record 40 10 128 Space_time.Waiting;
  check_int "and is extended in turn" 4 (Timeline.segments tl);
  check_int "span" 50 (Timeline.span_us tl);
  (* The merged run renders as the same run recorded in one piece. *)
  let whole = Timeline.create () in
  Timeline.record whole ~at:0 ~dt:20 ~words:64 Space_time.Active;
  Timeline.record whole ~at:25 ~dt:5 ~words:64 Space_time.Active;
  Timeline.record whole ~at:30 ~dt:5 ~words:64 Space_time.Waiting;
  Timeline.record whole ~at:35 ~dt:15 ~words:128 Space_time.Waiting;
  Alcotest.(check string) "render" (Timeline.render ~width:10 ~height:4 whole)
    (Timeline.render ~width:10 ~height:4 tl)

(* --- Fragmentation --- *)

let test_external_fragmentation () =
  check_float "one hole" 0. (Metrics.Fragmentation.external_of_free_blocks [ 100 ]);
  check_float "empty" 0. (Metrics.Fragmentation.external_of_free_blocks []);
  check_float "half shattered" 0.5 (Metrics.Fragmentation.external_of_free_blocks [ 50; 50 ]);
  let f = Metrics.Fragmentation.external_of_free_blocks [ 10; 10; 10; 10; 10 ] in
  check_float "five shards" 0.8 f

let test_unusable_for () =
  check_int "small shards unusable" 30
    (Metrics.Fragmentation.unusable_for ~request:20 [ 10; 5; 40; 15 ])

let test_internal_fragmentation () =
  let f = Metrics.Fragmentation.Internal.create ~page_size:512 in
  Metrics.Fragmentation.Internal.record f ~requested:100;
  Metrics.Fragmentation.Internal.record f ~requested:513;
  check_int "requested" 613 (Metrics.Fragmentation.Internal.requested_live f);
  check_int "granted" (512 + 1024) (Metrics.Fragmentation.Internal.granted_live f);
  check_int "wasted" 923 (Metrics.Fragmentation.Internal.wasted_live f);
  Metrics.Fragmentation.Internal.release f ~requested:100;
  check_int "after release" 513 (Metrics.Fragmentation.Internal.requested_live f);
  check_int "after release granted" 1024 (Metrics.Fragmentation.Internal.granted_live f)

(* --- Table --- *)

let test_table_renders () =
  let out =
    Metrics.Table.render ~headers:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22222" ] ]
  in
  check_bool "has header" true (String.length out > 0);
  let lines = String.split_on_char '\n' out in
  check_int "4 lines + trailing" 5 (List.length lines);
  (* all non-empty lines equal width *)
  let widths = List.filter_map (fun l -> if l = "" then None else Some (String.length l)) lines in
  List.iter (fun w -> check_int "uniform width" (List.hd widths) w) widths

let test_table_fmt () =
  Alcotest.(check string) "float" "3.14" (Metrics.Table.fmt_float 3.14159);
  Alcotest.(check string) "pct" "42.5%" (Metrics.Table.fmt_pct 0.425)

(* --- Chart --- *)

let test_chart_bars () =
  let out = Metrics.Chart.bars ~width:10 [ ("a", 10.); ("bb", 5.); ("c", 0.) ] in
  let lines = String.split_on_char '\n' out in
  check_int "three bars + trailing" 4 (List.length lines);
  check_bool "largest spans" true
    (String.length (List.nth lines 0) >= String.length (List.nth lines 1))

let test_chart_series () =
  let out =
    Metrics.Chart.series ~width:20 ~height:5 ~x_label:"x" ~y_label:"y"
      [ ("one", [ (0., 0.); (1., 1.) ]); ("two", [ (0., 1.); (1., 0.) ]) ]
  in
  check_bool "mentions series" true
    (String.length out > 0
    && String.index_opt out '*' <> None
    && String.index_opt out 'o' <> None)

let test_chart_empty_series () =
  Alcotest.(check string) "empty" "(empty chart)\n"
    (Metrics.Chart.series ~x_label:"x" ~y_label:"y" [])

let () =
  Alcotest.run "metrics"
    [
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          QCheck_alcotest.to_alcotest stats_matches_direct;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "linear" `Quick test_histogram_linear;
          Alcotest.test_case "log2" `Quick test_histogram_log2;
          Alcotest.test_case "percentile" `Quick test_histogram_percentile;
          Alcotest.test_case "min/max exact" `Quick test_histogram_min_max_exact;
          Alcotest.test_case "percentiles list" `Quick test_histogram_percentiles_list;
          QCheck_alcotest.to_alcotest histogram_percentile_matches_oracle;
        ] );
      ( "space_time",
        [
          Alcotest.test_case "accrual" `Quick test_space_time;
          Alcotest.test_case "empty" `Quick test_space_time_empty;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "records+renders" `Quick test_timeline_records_and_renders;
          Alcotest.test_case "heights follow words" `Quick test_timeline_heights_follow_words;
          Alcotest.test_case "continuations merge" `Quick test_timeline_merges_continuations;
        ] );
      ( "fragmentation",
        [
          Alcotest.test_case "external" `Quick test_external_fragmentation;
          Alcotest.test_case "unusable" `Quick test_unusable_for;
          Alcotest.test_case "internal" `Quick test_internal_fragmentation;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_renders;
          Alcotest.test_case "fmt" `Quick test_table_fmt;
        ] );
      ( "chart",
        [
          Alcotest.test_case "bars" `Quick test_chart_bars;
          Alcotest.test_case "series" `Quick test_chart_series;
          Alcotest.test_case "empty series" `Quick test_chart_empty_series;
        ] );
    ]
