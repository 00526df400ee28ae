(* The simulator benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Generates the workload's inputs from the seed, builds its engines
   (again between passes, to time the set-up), runs one checking pass whose
   simulated statistics must match the committed digests (for the
   seeds that have them) and the seed-free invariants, then repeats
   passes for S seconds, each of which must reproduce the checking
   pass exactly.  With --trace 0 it reports the end-to-end metrics;
   with --trace 1 it alternates untraced and traced passes and reports
   the per-layer metrics.  The last line of output is one JSON object.

     main.exe --emit-expected

   prints the digest module (expected.ml) for the default and held-out
   seeds. *)

let workloads =
  [ Replace.workload; Place.workload; Multiprog_io.workload; Sharded_trace.workload ]

let width = min 2 (Domain.recommended_domain_count ())

let digest stats = Digest.to_hex (Digest.string stats)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let seconds_of_ns ns = float_of_int ns /. 1e9

(* --- set-up and the checking pass --- *)

(* Set-up is timed in every round of the run, between passes, and the
   fastest round is reported: contention only slows work down, and the
   host's slow spells outlast any burst of set-ups taken at the start.
   A round repeats set-up until it has taken [round_budget_ns] (at least
   once, at most [max_setups_per_round] times) and drops the instances
   it built; its time is the mean over its set-ups, so a set-up of a
   microsecond is still timed over milliseconds. *)
let max_setups_per_round = 100_000

let round_budget_ns = 5_000_000

type setup_times = { mutable best : float; mutable best_gen : float; mutable count : int }

(* One round of set-ups, between full major collections: the round
   starts on a clean heap, and the instances it drops are not collected
   inside the next timed pass. *)
let setup_round times (w : Work.t) ~seed =
  Gc.full_major ();
  let spent = ref 0 and gen = ref 0 and n = ref 0 in
  while !n < max_setups_per_round && (!n = 0 || !spent < round_budget_ns) do
    let inst, ns = Work.timed (fun () -> w.setup ~seed) in
    spent := !spent + ns;
    gen := !gen + inst.Work.gen_ns;
    incr n
  done;
  let per_setup total = float_of_int total /. 1e9 /. float_of_int !n in
  times.best <- Float.min times.best (per_setup !spent);
  times.best_gen <- Float.min times.best_gen (per_setup !gen);
  times.count <- times.count + !n;
  Gc.full_major ()

(* Cells of the checking pass that fail: a seed-free invariant, or a
   committed digest when the seed has them. *)
let check_failures ~seed (p : Work.pass) =
  let expected = List.filter (fun (s, _, _) -> s = seed) Expected.digests in
  let digest_bad =
    if expected = [] then []
    else
      Array.to_list p.cells
      |> List.filter_map (fun (c : Work.cell) ->
             match List.find_opt (fun (_, id, _) -> String.equal id c.id) expected with
             | Some (_, _, d) when String.equal d (digest c.stats) -> None
             | Some _ | None -> Some c.id)
  in
  List.sort_uniq compare (p.bad @ digest_bad)

(* Cells of a later pass whose statistics differ from the checking
   pass. *)
let drift (reference : Work.pass) (p : Work.pass) =
  let n = Array.length reference.cells in
  if Array.length p.cells <> n then List.map (fun (c : Work.cell) -> c.id) (Array.to_list reference.cells)
  else
    List.filter_map
      (fun i ->
        let r = reference.cells.(i) and c = p.cells.(i) in
        if String.equal r.id c.id && String.equal r.stats c.stats then None else Some r.id)
      (List.init n Fun.id)

(* --- metrics --- *)

let victim_policies =
  Array.to_list (Array.map (fun s -> Work.slug (Paging.Spec.to_string s)) Replace.specs)

let placement_policies =
  Array.to_list (Array.map (fun p -> Work.slug (Place.policy_name p)) Place.policies)

(* Every span the workloads open, with the per-layer metric that
   reports its self time. *)
let span_metrics =
  [
    ("fault_sim", "fault_sim.self_s");
    ("replacement.build", "replacement.build_s");
    ("replacement.on_reference", "replacement.on_reference_s");
    ("replacement.update", "replacement.update_s");
  ]
  @ List.map (fun p -> ("replacement.victim." ^ p, "replacement.victim_s." ^ p)) victim_policies
  @ [ ("freelist.build", "freelist.build_s") ]
  @ List.map (fun p -> ("freelist.alloc." ^ p, "freelist.alloc_s." ^ p)) placement_policies
  @ [
      ("freelist.free", "freelist.free_s");
      ("multiprog", "multiprog.self_s");
      ("device.dispatch", "device.dispatch_s");
      ("obs.emit", "obs.emit_s");
      ("obs.serialize", "obs.serialize_s");
      ("obs.export", "obs.export_s");
      ("parallel.alloc", "parallel.alloc_s");
      ("parallel.paging", "parallel.paging_s");
    ]

let root_span = "bench.pass"

(* Deterministic work counters, with their units; a workload that
   does not report one reads 0. *)
let counter_metrics =
  [
    ("fault_sim.candidate_words", "words");
    ("freelist.nodes_examined", "count");
    ("device.served", "count");
    ("device.mean_queue_depth", "requests");
    ("obs.events", "count");
    ("obs.bytes", "bytes");
    ("parallel.checkpoints", "count");
    ("telemetry.snapshots", "count");
  ]

let per_layer_units =
  List.map (fun (_, m) -> (m, "s")) span_metrics
  @ counter_metrics
  @ [
      ("workload.gen_s", "s");
      ("gc.minor_words_per_op", "words/op");
      ("gc.major_collections", "count");
      ("bench.self_s", "s");
      ("bench.traced_wall_s", "s");
      ("bench.trace_overhead", "ratio");
    ]

let end_to_end_units = [ ("sim_ops_per_s", "ops/s"); ("setup_s", "s"); ("peak_heap_mb", "MB") ]

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~failed ~attempted ~accounting_ok metrics units =
  List.iter
    (fun (name, unit) -> Printf.printf "%-34s %18.6f %s\n" name (List.assoc name metrics) unit)
    units;
  Printf.printf "%-34s %18.6f share (%d of %d cells)\n" "mismatch_rate"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0 && accounting_ok) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (json_number (List.assoc name metrics))
              unit)
          units))

(* --- the run --- *)

let run (w : Work.t) ~seed ~seconds ~trace =
  let inst = w.setup ~seed in
  let times = { best = infinity; best_gen = infinity; count = 0 } in
  (* The checking pass runs at width 1 and is measured for the GC
     counters, which are deterministic there. *)
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).major_collections in
  let reference = inst.run ~check:true ~tracer:None ~width:1 in
  let minor_words = Gc.minor_words () -. minor0 in
  let major = (Gc.quick_stat ()).major_collections - major0 in
  let heap_words = (Gc.quick_stat ()).top_heap_words in
  let failures = ref (check_failures ~seed reference) in
  let attempted = ref (Array.length reference.cells) in
  let tracer = Span.create () in
  let root = Span.node tracer root_span in
  let untraced = ref [] and traced = ref [] and traced_counters = ref None in
  (* The fastest time each segment of each cell took in any untraced
     pass. *)
  let best =
    Array.map (fun (c : Work.cell) -> Array.make (Array.length c.segments_ns) max_int) reference.cells
  in
  let pass ~traced_pass =
    let p, ns =
      if traced_pass then
        Work.timed (fun () ->
            Span.enter tracer root;
            let p = inst.run ~check:false ~tracer:(Some tracer) ~width in
            Span.leave tracer;
            p)
      else Work.timed (fun () -> inst.run ~check:false ~tracer:None ~width)
    in
    attempted := !attempted + Array.length p.cells;
    failures := !failures @ drift reference p;
    if traced_pass then begin
      traced := seconds_of_ns ns :: !traced;
      if !traced_counters = None then traced_counters := Some p.counters
    end
    else begin
      untraced := seconds_of_ns ns :: !untraced;
      if Array.length p.cells = Array.length best then
        Array.iteri
          (fun i (c : Work.cell) ->
            if Array.length c.segments_ns = Array.length best.(i) then
              Array.iteri (fun j ns -> best.(i).(j) <- min best.(i).(j) ns) c.segments_ns)
          p.cells
    end
  in
  let deadline = Span.now_ns () + int_of_float (seconds *. 1e9) in
  let rounds = ref 0 in
  while !rounds < 3 || (Span.now_ns () < deadline && !rounds < 10_000) do
    setup_round times w ~seed;
    pass ~traced_pass:false;
    if trace then pass ~traced_pass:true;
    incr rounds
  done;
  let failed = List.length !failures in
  List.iteri
    (fun i id ->
      if i < 10 then
        Printf.printf "MISMATCH %s: %s\n" id
          (match Array.find_opt (fun (c : Work.cell) -> String.equal c.id id) reference.cells with
           | Some c -> c.stats
           | None -> "missing"))
    (List.sort_uniq compare !failures);
  Printf.printf "workload %s, seed %d, width %d, %d untraced + %d traced passes\n" w.name seed
    width (List.length !untraced) (List.length !traced);
  Printf.printf "untraced pass times (s): %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !untraced));
  Printf.printf "set-ups: %d, fastest round %.9f s per set-up\n" times.count times.best;
  if not trace then begin
    (* A segment never timed belongs to a cell that failed in every
       pass; the run is already incorrect, and reports no throughput. *)
    let timed_all = Array.for_all (Array.for_all (fun ns -> ns < max_int)) best in
    let metrics =
      [
        ( "sim_ops_per_s",
          if timed_all then
            float_of_int reference.ops
            /. seconds_of_ns (Array.fold_left (Array.fold_left ( + )) 0 best)
          else 0. );
        ("setup_s", times.best);
        ("peak_heap_mb", float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6);
      ]
    in
    print_result ~failed ~attempted:!attempted ~accounting_ok:true metrics end_to_end_units
  end
  else begin
    let n = float_of_int (List.length !traced) in
    let per_pass ns = float_of_int ns /. 1e9 /. n in
    let spans = List.map (fun (s, m) -> (m, per_pass (Span.self_of tracer s))) span_metrics in
    let counters = Option.value ~default:[] !traced_counters in
    let bench_self = per_pass (Span.self_ns root) and wall = per_pass root.Span.total_ns in
    (* Every span's self time is reported, so the layers plus the
       benchmark's own share account for the traced wall time. *)
    let unknown =
      List.filter
        (fun node ->
          let name = node.Span.name in
          (not (String.equal name root_span)) && not (List.mem_assoc name span_metrics))
        (Span.nodes tracer)
    in
    List.iter
      (fun node ->
        Printf.printf "span %-28s parent %-20s %10d intervals %10.6f s self per pass%s\n"
          node.Span.name node.parent node.count
          (per_pass (Span.self_ns node))
          (if List.memq node unknown then "  UNREPORTED" else ""))
      (Span.nodes tracer);
    let accounted = bench_self +. List.fold_left (fun acc (_, v) -> acc +. v) 0. spans in
    Printf.printf "span accounting: layers + bench.self_s = %.6f s, traced wall = %.6f s\n"
      accounted wall;
    let metrics =
      spans
      @ List.map
          (fun (name, _) -> (name, Option.value ~default:0. (List.assoc_opt name counters)))
          counter_metrics
      @ [
          ("workload.gen_s", times.best_gen);
          ("gc.minor_words_per_op", minor_words /. float_of_int (max 1 reference.ops));
          ("gc.major_collections", float_of_int major);
          ("bench.self_s", bench_self);
          ("bench.traced_wall_s", wall);
          ("bench.trace_overhead", median !traced /. median !untraced);
        ]
    in
    print_result ~failed ~attempted:!attempted ~accounting_ok:(unknown = []) metrics
      per_layer_units
  end

let emit_expected () =
  print_endline
    "(* Digests of every cell's simulated statistics for the default and\n\
    \   held-out seeds, generated by [main.exe --emit-expected]. *)\n";
  Printf.printf "let default_seed = %d\n\nlet held_out_seed = %d\n\n" Expected.default_seed
    Expected.held_out_seed;
  print_endline "let digests : (int * string * string) list =\n  [";
  List.iter
    (fun seed ->
      List.iter
        (fun (w : Work.t) ->
          let inst = w.setup ~seed in
          let p = inst.run ~check:true ~tracer:None ~width:1 in
          if p.bad <> [] then
            failwith (Printf.sprintf "%s seed %d: invariant failures in %s" w.name seed
                        (String.concat ", " p.bad));
          Array.iter
            (fun (c : Work.cell) -> Printf.printf "    (%d, %S, %S);\n" seed c.id (digest c.stats))
            p.cells)
        workloads)
    [ Expected.default_seed; Expected.held_out_seed ];
  print_endline "  ]"

let () =
  let workload = ref "" and seed = ref Expected.default_seed and seconds = ref 10.
  and trace = ref 0 and emit = ref false in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from traced passes");
      ("--emit-expected", Arg.Set emit, " print the digest module for the committed seeds");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !emit then emit_expected ()
  else
    match List.find_opt (fun (w : Work.t) -> String.equal w.name !workload) workloads with
    | None ->
      Printf.eprintf "unknown workload %S; expected one of: %s\n" !workload
        (String.concat ", " (List.map (fun (w : Work.t) -> w.name) workloads));
      exit 2
    | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline "--trace takes 0 or 1";
      exit 2
    | Some _ when !seconds <= 0. ->
      prerr_endline "--seconds must be positive";
      exit 2
    | Some w -> run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
