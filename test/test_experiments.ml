(* Integration tests over the experiments: each asserts the qualitative
   shape the paper claims, at reduced (quick) scale, so EXPERIMENTS.md's
   conclusions are guarded by the test suite. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* F1/F2: name contiguity without address contiguity. *)
let test_fig1_2_scattered () =
  Alcotest.(check (float 1e-9)) "all adjacent pairs scattered" 1.0
    (Experiments.Fig1_2.scattered_fraction ())

(* F3: waiting space-time grows with fetch time and dominates on slow
   stores. *)
let test_fig3_waiting_dominates () =
  let rows = Experiments.Fig3.measure ~quick:true () in
  let fractions = List.map (fun r -> r.Experiments.Fig3.waiting_fraction) rows in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && nondecreasing rest
    | [ _ ] | [] -> true
  in
  check_bool "waiting fraction grows with fetch time" true (nondecreasing fractions);
  check_bool "disk waiting dominates" true (List.nth fractions (List.length fractions - 1) > 0.9);
  (* Active space-time is the same program work in every row. *)
  let actives = List.map (fun r -> r.Experiments.Fig3.active) rows in
  List.iter
    (fun a -> check_bool "same active work" true (abs_float (a -. List.hd actives) < 1e-6))
    actives

(* F4: the associative memory recovers the two-level mapping overhead. *)
let test_fig4_tlb_recovers_overhead () =
  let rows = Experiments.Fig4.measure ~quick:true () in
  let by_cap c =
    List.find (fun r -> r.Experiments.Fig4.tlb_capacity = c) rows
  in
  let none = by_cap 0 and small = by_cap 8 in
  check_bool "no TLB pays 2 map accesses per ref" true
    (abs_float (none.Experiments.Fig4.map_accesses_per_ref -. 2.) < 1e-9);
  check_bool "3x raw access without TLB" true
    (abs_float (none.Experiments.Fig4.overhead_vs_raw -. 3.) < 1e-9);
  check_bool "a small TLB recovers >90% of the overhead" true
    (small.Experiments.Fig4.overhead_vs_raw < 1.2)

(* C1: internal fragmentation grows with page size and overtakes the
   variable allocator's total waste. *)
let test_c1_paging_obscures_fragmentation () =
  let rows = Experiments.C1_fragmentation.measure ~quick:true () in
  let waste name =
    (List.find (fun r -> r.Experiments.C1_fragmentation.discipline = name) rows)
      .Experiments.C1_fragmentation.wasted_fraction
  in
  check_bool "large pages waste more than small" true
    (waste "paged (4096-word frames)" > waste "paged (64-word frames)");
  check_bool "paging at large sizes wastes far more than variable" true
    (waste "paged (1024-word frames)" > 3. *. waste "variable (best-fit)");
  check_bool "buddy sits between" true
    (waste "buddy" > waste "variable (best-fit)")

(* C2: worst fit shatters the store worse than best fit; next fit
   searches less than best fit. *)
let test_c2_placement_shapes () =
  let rows = Experiments.C2_placement.measure ~quick:true () in
  let get policy mix =
    List.find
      (fun r ->
        r.Experiments.C2_placement.policy = policy && r.Experiments.C2_placement.mix = mix)
      rows
  in
  let mix = "small-skewed" in
  check_bool "worst fit fragments more than best fit" true
    ((get "worst-fit" mix).outcome.external_frag
    > (get "best-fit" mix).outcome.external_frag);
  check_bool "next fit searches less than best fit" true
    ((get "next-fit" mix).outcome.mean_search
    < (get "best-fit" mix).outcome.mean_search)

(* C3: OPT lower-bounds everything; anomaly present. *)
let test_c3_opt_and_anomaly () =
  let curves = Experiments.C3_replacement.measure ~quick:true () in
  let traces =
    List.sort_uniq compare (List.map (fun c -> c.Experiments.C3_replacement.trace_name) curves)
  in
  List.iter
    (fun trace ->
      let group =
        List.filter (fun c -> c.Experiments.C3_replacement.trace_name = trace) curves
      in
      let opt = List.find (fun c -> c.Experiments.C3_replacement.policy = "OPT") group in
      List.iter
        (fun c ->
          List.iter2
            (fun (f, rate) (f', opt_rate) ->
              check_bool
                (Printf.sprintf "%s: OPT <= %s at %d frames" trace
                   c.Experiments.C3_replacement.policy f)
                true
                (f = f' && opt_rate <= rate +. 1e-9))
            c.Experiments.C3_replacement.points opt.Experiments.C3_replacement.points)
        group)
    traces;
  let anomaly = Experiments.C3_replacement.anomaly_rows () in
  let fifo frames = let _, f, _ = List.find (fun (fr, _, _) -> fr = frames) anomaly in f in
  check_bool "Belady anomaly: FIFO(4) > FIFO(3)" true (fifo 4 > fifo 3)

(* C4: advice eliminates most demand faults and, with enough lead,
   shortens the run. *)
let test_c4_advice_shapes () =
  let rows = Experiments.C4_predictive.measure ~quick:true () in
  let demand = List.hd rows in
  let advised = List.nth rows 1 in
  check_bool "advice cuts demand faults" true
    (advised.Experiments.C4_predictive.faults < demand.Experiments.C4_predictive.faults / 2);
  check_bool "prefetches issued" true (advised.Experiments.C4_predictive.prefetches > 0)

(* C5: paged fetches move roughly page-size granules; segment store
   moves exactly the named segments; both complete the workload. *)
let test_c5_runs () =
  let rows = Experiments.C5_unit.measure ~quick:true () in
  check_bool "three systems" true (List.length rows = 3);
  List.iter
    (fun r -> check_bool "faults occurred" true (r.Experiments.C5_unit.faults > 0))
    rows

(* C6: the chain allocator combines only under pressure, and carries
   more fragmentation than immediate coalescing. *)
let test_c6_chain_vs_coalescing () =
  let rows = Experiments.C6_rice.measure ~quick:true () in
  let rice =
    List.filter (fun r -> r.Experiments.C6_rice.allocator = "rice-chain") rows
  in
  let boundary =
    List.filter (fun r -> r.Experiments.C6_rice.allocator = "boundary-tag first-fit") rows
  in
  check_bool "combines happen under pressure" true
    (List.exists (fun r -> r.Experiments.C6_rice.combines > 0) rice);
  List.iter2
    (fun r b ->
      check_bool "chain leaves more holes than coalescing" true
        (r.Experiments.C6_rice.final_holes >= b.Experiments.C6_rice.final_holes))
    rice boundary

(* C7: utilization rises with k under ample store; collapses under a
   fixed store at high k. *)
let test_c7_multiprog_shapes () =
  let rows = Experiments.C7_multiprog.measure ~quick:true () in
  let get regime jobs fetch =
    List.find
      (fun r ->
        r.Experiments.C7_multiprog.regime = regime
        && r.Experiments.C7_multiprog.jobs = jobs
        && r.Experiments.C7_multiprog.fetch_us = fetch)
      rows
  in
  check_bool "ample store: k=4 beats k=1" true
    ((get "ample store" 4 500).Experiments.C7_multiprog.cpu_utilization
    > (get "ample store" 1 500).Experiments.C7_multiprog.cpu_utilization);
  check_bool "fixed store: k=4 thrashes below k=1" true
    ((get "fixed 32 frames" 4 5000).Experiments.C7_multiprog.cpu_utilization
    < (get "fixed 32 frames" 1 5000).Experiments.C7_multiprog.cpu_utilization)

(* C8: the combined page-size cost has an interior optimum; the dual
   scheme matches small-page waste at near large-page table cost. *)
let test_c8_interior_optimum () =
  let rows = Experiments.C8_page_size.measure ~quick:true () in
  let cost p =
    (List.find (fun r -> r.Experiments.C8_page_size.page_size = p) rows)
      .Experiments.C8_page_size.combined_cost
  in
  check_bool "1024 beats both extremes" true
    (cost 1024 < cost 256 && cost 1024 < cost 4096);
  let dual = Experiments.C8_page_size.dual_rows () in
  let find name = List.find (fun (n, _, _) -> n = name) dual in
  let _, dual_waste, dual_entries = find "dual 64+1024 (MULTICS)" in
  let _, w64, e64 = find "uniform 64" in
  let _, w1024, e1024 = find "uniform 1024" in
  check_bool "dual waste = small-page waste" true (dual_waste = w64);
  check_bool "dual entries well below uniform-64 entries" true (dual_entries * 2 < e64);
  check_bool "dual wastes far less than uniform 1024" true (dual_waste * 4 < w1024);
  ignore e1024

(* X1: compaction reduces failures and fragmentation, at a real cost in
   moved words. *)
let test_x1_compaction_helps () =
  let rows = Experiments.X1_compaction.measure ~quick:true () in
  let get v = List.find (fun r -> r.Experiments.X1_compaction.variant = v) rows in
  let plain = get "best-fit, no compaction" in
  let compacted = get "best-fit + compaction" in
  check_bool "fewer failures with compaction" true
    (compacted.Experiments.X1_compaction.failed <= plain.Experiments.X1_compaction.failed);
  check_bool "compaction happened and moved words" true
    (compacted.Experiments.X1_compaction.compactions > 0
    && compacted.Experiments.X1_compaction.words_moved > 0);
  check_bool "no-compaction variant moved nothing" true
    (plain.Experiments.X1_compaction.words_moved = 0)

(* X2: frequency-gated promotion beats promote-always on hit quality
   with far fewer promotions; bulk-only is slowest. *)
let test_x2_hierarchy_shapes () =
  let rows = Experiments.X2_hierarchy.measure ~quick:true () in
  let get rule = List.find (fun r -> r.Experiments.X2_hierarchy.rule = rule) rows in
  let never = get "never (bulk only)" in
  let always = get "promote always" in
  let gated = get "promote after 4" in
  check_bool "never has no promotions" true (never.Experiments.X2_hierarchy.promotions = 0);
  check_bool "any promotion beats bulk-only" true
    (always.Experiments.X2_hierarchy.effective_access_us
    < never.Experiments.X2_hierarchy.effective_access_us);
  check_bool "gating slashes promotion traffic" true
    (gated.Experiments.X2_hierarchy.promotions * 2
    < always.Experiments.X2_hierarchy.promotions);
  check_bool "gating keeps (or improves) the hit ratio" true
    (gated.Experiments.X2_hierarchy.fast_hit_ratio
    >= always.Experiments.X2_hierarchy.fast_hit_ratio -. 0.05)

(* X3: static overlays win dense phases, demand paging wins sparse. *)
let test_x3_overlay_crossover () =
  let rows = Experiments.X3_overlay.measure ~quick:true () in
  let get scheme workload =
    List.find
      (fun r ->
        r.Experiments.X3_overlay.scheme = scheme
        && r.Experiments.X3_overlay.workload = workload)
      rows
  in
  check_bool "static wins dense phases" true
    ((get "static overlays" "dense phases").Experiments.X3_overlay.elapsed_us
    < (get "demand paging" "dense phases").Experiments.X3_overlay.elapsed_us);
  check_bool "demand wins sparse phases" true
    ((get "demand paging" "sparse phases").Experiments.X3_overlay.elapsed_us
    < (get "static overlays" "sparse phases").Experiments.X3_overlay.elapsed_us);
  check_bool "demand loads far fewer words when sparse" true
    ((get "demand paging" "sparse phases").Experiments.X3_overlay.words_loaded * 5
    < (get "static overlays" "sparse phases").Experiments.X3_overlay.words_loaded)

(* X4: swapping wins dense interactions, paging wins sparse. *)
let test_x4_swapping_crossover () =
  let rows = Experiments.X4_swapping.measure ~quick:true () in
  let get scheme touched =
    List.find
      (fun r ->
        r.Experiments.X4_swapping.scheme = scheme
        && r.Experiments.X4_swapping.touched = touched)
      rows
  in
  check_bool "swapping wins dense" true
    ((get "whole-program swapping" "~90% of program").Experiments.X4_swapping.elapsed_us
    < (get "demand paging" "~90% of program").Experiments.X4_swapping.elapsed_us);
  check_bool "paging wins sparse" true
    ((get "demand paging" "~8% of program").Experiments.X4_swapping.elapsed_us
    < (get "whole-program swapping" "~8% of program").Experiments.X4_swapping.elapsed_us);
  check_bool "paging moves far fewer words when sparse" true
    ((get "demand paging" "~8% of program").Experiments.X4_swapping.words_moved * 3
    < (get "whole-program swapping" "~8% of program").Experiments.X4_swapping.words_moved)

(* X5: every addressing unit computes the same answer; only the paged
   and segmented units fault. *)
let test_x5_same_answer_everywhere () =
  let rows = Experiments.X5_addressing.measure ~quick:true () in
  let answers = List.map (fun r -> r.Experiments.X5_addressing.answer) rows in
  List.iter
    (fun a -> check_bool "same answer" true (a = List.hd answers))
    answers;
  let get label =
    List.find (fun r -> r.Experiments.X5_addressing.unit_label = label) rows
  in
  check_bool "absolute takes no faults" true
    ((get "absolute").Experiments.X5_addressing.faults = 0);
  check_bool "paged faults" true ((get "demand paged").Experiments.X5_addressing.faults > 0);
  check_bool "segmented faults" true
    ((get "segmented (PRT)").Experiments.X5_addressing.faults > 0);
  check_bool "paged costs more time than absolute" true
    ((get "demand paged").Experiments.X5_addressing.elapsed_us
    > (get "absolute").Experiments.X5_addressing.elapsed_us)

(* X6: the space-time optimum is interior and tracks the working set. *)
let test_x6_optimum_tracks_working_set () =
  let rows = Experiments.X6_allotment.measure ~quick:true () in
  let optimum program =
    (List.find
       (fun r -> r.Experiments.X6_allotment.program = program && r.Experiments.X6_allotment.optimal)
       rows)
      .Experiments.X6_allotment.frames
  in
  let tight = optimum "tight (WS~12)" and loose = optimum "loose (WS~36)" in
  check_bool "tight optimum interior" true (tight > 4 && tight < 96);
  check_bool "bigger working set, bigger optimum" true (loose > tight)

(* X7: the recommendation wins with ample core; whole-segment fetching
   loses under pressure (the clause (iv) lesson). *)
let test_x7_recommendation_regimes () =
  let rows = Experiments.X7_recommended.measure ~quick:true () in
  let get regime system =
    List.find
      (fun r ->
        r.Experiments.X7_recommended.regime = regime
        && r.Experiments.X7_recommended.system = system)
      rows
  in
  let faults r = r.Experiments.X7_recommended.faults in
  check_bool "ample: recommended beats the chopped B5000" true
    (faults (get "ample core" "recommended") <= faults (get "ample core" "B5000"));
  check_bool "tight: whole-segment fetching thrashes" true
    (faults (get "tight core" "recommended") > faults (get "tight core" "B5000"))

(* X8: FIFO drum service collapses under load; SATF stays near one
   revolution. *)
let test_x8_drum_scheduling () =
  let rows = Experiments.X8_drum.measure ~quick:true () in
  let get policy load =
    List.find
      (fun r -> r.Experiments.X8_drum.policy = policy && r.Experiments.X8_drum.load = load)
      rows
  in
  let fifo = "arrival order (FIFO)" and satf = "shortest access first" in
  check_bool "light load: comparable" true
    ((get fifo 0.5).Experiments.X8_drum.mean_latency_us
    < 2. *. (get satf 0.5).Experiments.X8_drum.mean_latency_us);
  check_bool "heavy load: FIFO collapses" true
    ((get fifo 6.0).Experiments.X8_drum.mean_latency_us
    > 10. *. (get satf 6.0).Experiments.X8_drum.mean_latency_us);
  check_bool "SATF stays near a couple of revolutions" true
    ((get satf 6.0).Experiments.X8_drum.revolutions_per_page < 3.)

(* X8d: the timed device subsystem, read through the C7 lens.  SATF
   must strictly beat FIFO on the drum once the queue is deeper than
   one request, and injected read errors must cost time, not data. *)
let test_x8_devices_satf_beats_fifo () =
  let rows = Experiments.X8_devices.measure_multiprog ~quick:true () in
  let get device sched channels =
    List.find
      (fun r ->
        r.Experiments.X8_devices.device = device
        && r.Experiments.X8_devices.sched = sched
        && r.Experiments.X8_devices.channels = channels)
      rows
  in
  let latency r = r.Experiments.X8_devices.mean_latency_us in
  check_bool "queue is actually contended" true
    ((get "drum" "fifo" 1).Experiments.X8_devices.mean_depth > 1.);
  check_bool "drum: satf < fifo (1 channel)" true
    (latency (get "drum" "satf" 1) < latency (get "drum" "fifo" 1));
  check_bool "drum: satf < fifo (2 channels)" true
    (latency (get "drum" "satf" 2) < latency (get "drum" "fifo" 2));
  check_bool "second channel helps fifo" true
    (latency (get "drum" "fifo" 2) < latency (get "drum" "fifo" 1))

let test_x8_devices_faults_cost_time_not_data () =
  let rows = Experiments.X8_devices.measure_faults ~quick:true () in
  let base = List.hd rows in
  check_int "baseline injects nothing" 0 base.Experiments.X8_devices.injected;
  List.iter
    (fun r ->
      if r.Experiments.X8_devices.error_prob > 0. then begin
        check_bool "errors injected" true (r.Experiments.X8_devices.injected > 0);
        check_bool "and retried" true (r.Experiments.X8_devices.retries > 0);
        check_int "page-fault count unchanged" base.Experiments.X8_devices.run_faults
          r.Experiments.X8_devices.run_faults;
        check_bool "memory contents unchanged" true
          (Int64.equal base.Experiments.X8_devices.checksum
             r.Experiments.X8_devices.checksum)
      end)
    rows

let test_x8_devices_run_custom_validates () =
  let ok = function Ok () -> true | Error _ -> false in
  let devnull = open_out "/dev/null" in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 (Unix.descr_of_out_channel devnull) Unix.stdout;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    close_out devnull
  in
  let good =
    try
      Experiments.X8_devices.run_custom ~quick:true ~device:"drum" ~sched:"satf"
        ~channels:2 ()
    with e -> restore (); raise e
  in
  restore ();
  check_bool "valid configuration runs" true (ok good);
  check_bool "unknown device rejected" true
    (not
       (ok (Experiments.X8_devices.run_custom ~quick:true ~device:"tape" ~sched:"fifo"
              ~channels:1 ())));
  check_bool "unknown sched rejected" true
    (not
       (ok (Experiments.X8_devices.run_custom ~quick:true ~device:"drum"
              ~sched:"elevator" ~channels:1 ())));
  check_bool "channels >= 1 enforced" true
    (not
       (ok (Experiments.X8_devices.run_custom ~quick:true ~device:"drum" ~sched:"fifo"
              ~channels:0 ())))

(* Each name is parsed once, in any case: upper-case flags print
   exactly what the lower-case ones print. *)
let test_x8_devices_run_custom_any_case () =
  let run device sched =
    let path = Filename.temp_file "x8_custom" ".txt" in
    let oc = open_out path in
    let saved = Unix.dup Unix.stdout in
    flush stdout;
    Unix.dup2 (Unix.descr_of_out_channel oc) Unix.stdout;
    let r =
      Fun.protect
        ~finally:(fun () ->
          flush stdout;
          Unix.dup2 saved Unix.stdout;
          Unix.close saved;
          close_out oc)
        (fun () ->
          Experiments.X8_devices.run_custom ~quick:true ~device ~sched ~channels:2 ())
    in
    let text = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    (r, text)
  in
  let lower_ok, lower = run "drum" "satf" in
  let upper_ok, upper = run "DRUM" "SATF" in
  check_bool "lower-case names run" true (lower_ok = Ok ());
  check_bool "upper-case names run" true (upper_ok = Ok ());
  Alcotest.(check string) "same output in any case" lower upper

(* Registry: all experiments run end-to-end at quick scale without
   raising, with output going somewhere harmless. *)
let test_registry_all_run () =
  let devnull = open_out "/dev/null" in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 (Unix.descr_of_out_channel devnull) Unix.stdout;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    close_out devnull
  in
  (match Experiments.Registry.run_all ~quick:true () with
   | () -> restore ()
   | exception e ->
     restore ();
     raise e);
  check_bool "twenty-four experiments" true
    (List.length Experiments.Registry.all = 24);
  check_bool "ids match the registry" true
    (Experiments.Registry.ids
    = List.map (fun e -> e.Experiments.Registry.id) Experiments.Registry.all);
  check_bool "find is case-insensitive" true
    (Experiments.Registry.find "FIG3" <> None);
  check_bool "unknown id" true (Experiments.Registry.find "nope" = None)

(* --- campaign cells -------------------------------------------------- *)

(* A cell run as the campaign runner runs it: quick, seed 0, stamped
   with its id and bindings before it fills the registry. *)
let run_cell ?(params = []) id =
  match Experiments.Cells.find id with
  | None -> Alcotest.failf "no cell %s" id
  | Some cell ->
    let reg = Obs.Registry.create () in
    let ctx =
      { Experiments.Cell.params; seed = 0; quick = true; reg; obs = Obs.Sink.null }
    in
    Experiments.Cell.stamp ~cell:id ctx;
    (match cell.Experiments.Cell.run ctx with
     | Ok () -> reg
     | Error msg -> Alcotest.failf "cell %s failed: %s" id msg)

let gauge reg name = Obs.Registry.gauge_value (Obs.Registry.gauge reg name)

let counter reg name = Obs.Registry.counter_value (Obs.Registry.counter reg name)

let check_exact = Alcotest.(check (float 0.))

(* Every cell kind at its defaults reproduces its committed metrics
   artifact byte for byte: one fixture line per kind, in catalogue
   order. *)
let test_cells_match_fixture () =
  let path =
    List.find Sys.file_exists
      [ "fixtures/cells_quick.jsonl"; "test/fixtures/cells_quick.jsonl" ]
  in
  let ic = open_in path in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  close_in ic;
  let expected = List.filter (fun l -> l <> "") lines in
  check_int "one line per cell kind" (List.length Experiments.Cells.ids)
    (List.length expected);
  List.iter2
    (fun id line ->
      Alcotest.(check string) id line (Obs.Registry.to_json (run_cell id)))
    Experiments.Cells.ids expected

(* At their defaults the family cells are grid points of their
   experiments: the same numbers as the named experiment row. *)
let test_cells_equal_experiment_rows () =
  let paging = run_cell "paging" in
  let drum =
    List.find
      (fun r -> r.Experiments.Fig3.device = "drum")
      (Experiments.Fig3.measure ~quick:true ())
  in
  check_exact "paging active" drum.Experiments.Fig3.active (gauge paging "st.active");
  check_exact "paging waiting" drum.Experiments.Fig3.waiting (gauge paging "st.waiting");
  check_exact "paging waiting fraction" drum.Experiments.Fig3.waiting_fraction
    (gauge paging "st.waiting_fraction");
  let placement = run_cell "placement" in
  let best =
    List.find
      (fun r ->
        r.Experiments.C2_placement.mix = "small-skewed"
        && r.Experiments.C2_placement.policy = "best-fit")
      (Experiments.C2_placement.measure ~quick:true ())
  in
  let best = best.Experiments.C2_placement.outcome in
  check_exact "placement external frag" best.external_frag (gauge placement "frag.external");
  check_exact "placement holes" (float_of_int best.holes) (gauge placement "frag.holes");
  check_exact "placement mean search" best.mean_search (gauge placement "alloc.mean_search");
  check_exact "placement largest free"
    (float_of_int best.largest_free)
    (gauge placement "alloc.largest_free");
  check_int "placement failures" best.failures (counter placement "alloc.failures");
  let multiprog = run_cell "multiprog" in
  let fixed =
    List.find
      (fun r ->
        r.Experiments.C7_multiprog.regime = "fixed 32 frames"
        && r.Experiments.C7_multiprog.jobs = 4
        && r.Experiments.C7_multiprog.fetch_us = 5_000)
      (Experiments.C7_multiprog.measure ~quick:true ())
  in
  check_exact "multiprog utilization" fixed.Experiments.C7_multiprog.cpu_utilization
    (gauge multiprog "cpu_utilization");
  check_int "multiprog faults" fixed.Experiments.C7_multiprog.total_faults
    (counter multiprog "total_faults");
  check_int "multiprog elapsed" fixed.Experiments.C7_multiprog.elapsed_us
    (counter multiprog "elapsed_us");
  let replacement = run_cell ~params:[ ("trace", "zipf") ] "replacement" in
  let zipf_lru =
    List.find
      (fun c ->
        c.Experiments.C3_replacement.trace_name = "zipf(1.0)"
        && c.Experiments.C3_replacement.policy = "LRU")
      (Experiments.C3_replacement.measure ~quick:true ())
  in
  check_exact "replacement fault rate"
    (List.assoc 32 zipf_lru.Experiments.C3_replacement.points)
    (gauge replacement "fault_rate")

(* A cell's declared [params] are the only axes a spec may sweep:
   [for_spec] takes every declared one and refuses, before anything
   runs, an axis the cell lacks, naming it. *)
let test_for_spec_refuses_unknown_axis () =
  let contains_substring haystack needle =
    let hl = String.length haystack and nl = String.length needle in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  let spec (cell : Experiments.Cell.spec) names =
    {
      Campaign.Spec.name = "t";
      cell = cell.id;
      seeds = [ 0 ];
      quick = true;
      trace_every = 0;
      axes = List.map (fun n -> { Campaign.Spec.axis_name = n; values = [ "1" ] }) names;
    }
  in
  List.iter
    (fun (cell : Experiments.Cell.spec) ->
      let declared = List.map fst cell.params in
      check_bool (cell.id ^ " takes its declared params") true
        (Result.is_ok (Experiments.Cells.for_spec (spec cell declared)));
      match Experiments.Cells.for_spec (spec cell (declared @ [ "frmaes" ])) with
      | Ok _ -> Alcotest.failf "%s accepted an axis it lacks" cell.id
      | Error msg ->
        check_bool (cell.id ^ " names the axis: " ^ msg) true
          (contains_substring msg "\"frmaes\""))
    Experiments.Cells.all

let () =
  Alcotest.run "experiments"
    [
      ( "figures",
        [
          Alcotest.test_case "fig1_2 scattered mapping" `Quick test_fig1_2_scattered;
          Alcotest.test_case "fig3 waiting dominates" `Quick test_fig3_waiting_dominates;
          Alcotest.test_case "fig4 tlb recovers overhead" `Quick test_fig4_tlb_recovers_overhead;
        ] );
      ( "claims",
        [
          Alcotest.test_case "c1 fragmentation obscured" `Quick test_c1_paging_obscures_fragmentation;
          Alcotest.test_case "c2 placement shapes" `Quick test_c2_placement_shapes;
          Alcotest.test_case "c3 opt + anomaly" `Quick test_c3_opt_and_anomaly;
          Alcotest.test_case "c4 advice shapes" `Quick test_c4_advice_shapes;
          Alcotest.test_case "c5 unit of allocation" `Quick test_c5_runs;
          Alcotest.test_case "c6 chain vs coalescing" `Quick test_c6_chain_vs_coalescing;
          Alcotest.test_case "c7 multiprogramming shapes" `Quick test_c7_multiprog_shapes;
          Alcotest.test_case "c8 interior optimum" `Quick test_c8_interior_optimum;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "x1 compaction helps" `Quick test_x1_compaction_helps;
          Alcotest.test_case "x2 hierarchy shapes" `Quick test_x2_hierarchy_shapes;
          Alcotest.test_case "x3 overlay crossover" `Quick test_x3_overlay_crossover;
          Alcotest.test_case "x4 swapping crossover" `Quick test_x4_swapping_crossover;
          Alcotest.test_case "x5 same answer everywhere" `Quick test_x5_same_answer_everywhere;
          Alcotest.test_case "x6 optimum tracks working set" `Quick test_x6_optimum_tracks_working_set;
          Alcotest.test_case "x7 recommendation regimes" `Quick test_x7_recommendation_regimes;
          Alcotest.test_case "x8 drum scheduling" `Quick test_x8_drum_scheduling;
          Alcotest.test_case "x8d satf beats fifo" `Quick test_x8_devices_satf_beats_fifo;
          Alcotest.test_case "x8d faults cost time only" `Quick
            test_x8_devices_faults_cost_time_not_data;
          Alcotest.test_case "x8d run_custom validates" `Quick
            test_x8_devices_run_custom_validates;
          Alcotest.test_case "x8d run_custom reads names in any case" `Quick
            test_x8_devices_run_custom_any_case;
        ] );
      ("registry", [ Alcotest.test_case "all run" `Quick test_registry_all_run ]);
      ( "cells",
        [
          Alcotest.test_case "defaults match fixture" `Quick test_cells_match_fixture;
          Alcotest.test_case "defaults equal experiment rows" `Quick
            test_cells_equal_experiment_rows;
          Alcotest.test_case "for_spec refuses an axis the cell lacks" `Quick
            test_for_spec_refuses_unknown_axis;
        ] );
    ]
