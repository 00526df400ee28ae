(* Tests for lib/parallel: the Treiber free stack, the Blelloch & Wei
   style fixed-size allocator, the static shard-to-domain pool — and
   the determinism contract: the merged trace of a sharded run is
   bit-identical whether the shards share one domain or get several,
   and a merged trace passes every Obs.Check invariant. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Freestack --- *)

let test_freestack_lifo () =
  let s = Parallel.Freestack.create () in
  check_bool "fresh empty" true (Parallel.Freestack.is_empty s);
  for i = 1 to 10 do
    Parallel.Freestack.push s i
  done;
  check_int "length" 10 (Parallel.Freestack.length s);
  for i = 10 downto 1 do
    match Parallel.Freestack.pop s with
    | Some v -> check_int "lifo order" i v
    | None -> Alcotest.fail "stack ran dry early"
  done;
  check_bool "drained" true (Parallel.Freestack.pop s = None);
  check_bool "empty again" true (Parallel.Freestack.is_empty s)

let test_freestack_interleaved () =
  let s = Parallel.Freestack.create () in
  Parallel.Freestack.push s 'a';
  Parallel.Freestack.push s 'b';
  check_bool "pop b" true (Parallel.Freestack.pop s = Some 'b');
  Parallel.Freestack.push s 'c';
  check_bool "pop c" true (Parallel.Freestack.pop s = Some 'c');
  check_bool "pop a" true (Parallel.Freestack.pop s = Some 'a');
  check_bool "dry" true (Parallel.Freestack.pop s = None)

(* --- Fixed_alloc --- *)

let test_fixed_alloc_exhaustion () =
  let t =
    Parallel.Fixed_alloc.create ~base:1024 ~magazine:4 ~slots:8 ~slot_words:4 ()
  in
  let c = Parallel.Fixed_alloc.cache t in
  let seen = Hashtbl.create 8 in
  for _ = 1 to 8 do
    match Parallel.Fixed_alloc.alloc c with
    | None -> Alcotest.fail "allocator dry before all slots used"
    | Some addr ->
      check_bool "aligned" true ((addr - 1024) mod 4 = 0);
      check_bool "in region" true (addr >= 1024 && addr < 1024 + (8 * 4));
      check_bool "distinct" false (Hashtbl.mem seen addr);
      Hashtbl.replace seen addr ()
  done;
  check_bool "9th denied" true (Parallel.Fixed_alloc.alloc c = None);
  let st = Parallel.Fixed_alloc.stats c in
  check_int "allocs" 8 st.Parallel.Fixed_alloc.allocs;
  check_int "failures" 1 st.Parallel.Fixed_alloc.failures

let test_fixed_alloc_free_realloc () =
  let t = Parallel.Fixed_alloc.create ~slots:16 ~slot_words:2 () in
  let c = Parallel.Fixed_alloc.cache t in
  match Parallel.Fixed_alloc.alloc c with
  | None -> Alcotest.fail "first alloc failed"
  | Some a ->
    Parallel.Fixed_alloc.free c a;
    (* The magazine is LIFO: the freshly freed slot comes back first. *)
    check_bool "lifo realloc" true (Parallel.Fixed_alloc.alloc c = Some a)

let test_fixed_alloc_rejects_bad_free () =
  let t = Parallel.Fixed_alloc.create ~slots:4 ~slot_words:8 () in
  let c = Parallel.Fixed_alloc.cache t in
  let raises addr =
    match Parallel.Fixed_alloc.free c addr with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "below region" true (raises (-8));
  check_bool "past region" true (raises (4 * 8));
  check_bool "misaligned" true (raises 3)

let test_fixed_alloc_total_stats () =
  let t = Parallel.Fixed_alloc.create ~magazine:2 ~slots:8 ~slot_words:1 () in
  let c1 = Parallel.Fixed_alloc.cache t in
  let c2 = Parallel.Fixed_alloc.cache t in
  let take c n =
    for _ = 1 to n do
      match Parallel.Fixed_alloc.alloc c with
      | Some _ -> ()
      | None -> Alcotest.fail "unexpected exhaustion"
    done
  in
  take c1 3;
  take c2 2;
  let st = Parallel.Fixed_alloc.total_stats t in
  check_int "summed allocs" 5 st.Parallel.Fixed_alloc.allocs;
  check_bool "refills happened" true (st.Parallel.Fixed_alloc.refills >= 2)

(* --- Pool --- *)

let test_pool_shard_order () =
  let r = Parallel.Pool.map_shards ~domains:3 ~shards:7 (fun s -> s * s) in
  Alcotest.(check (array int)) "squares in shard order"
    [| 0; 1; 4; 9; 16; 25; 36 |] r

let test_pool_zero_shards () =
  check_int "empty" 0
    (Array.length (Parallel.Pool.map_shards ~domains:4 ~shards:0 (fun s -> s)))

let test_pool_rejects_bad_domains () =
  match Parallel.Pool.map_shards ~domains:0 ~shards:4 (fun s -> s) with
  | _ -> Alcotest.fail "domains=0 accepted"
  | exception Invalid_argument _ -> ()

let test_pool_propagates_exn () =
  match
    Parallel.Pool.map_shards ~domains:2 ~shards:5 (fun s ->
        if s = 3 then failwith "shard 3 boom" else s)
  with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure m -> Alcotest.(check string) "first exn" "shard 3 boom" m

(* --- The determinism contract (the qcheck merge property) --- *)

let collect runner =
  let buf = ref [] in
  let sink = Obs.Sink.collect (fun ev -> buf := ev :: !buf) in
  let report = runner sink in
  (report, List.rev_map Obs.Event.to_json !buf |> List.rev)

let alloc_cfg seed =
  Parallel.Sharded.alloc_config ~shards:4 ~ops_per_shard:300
    ~slots_per_shard:64 ~slot_words:8 ~seed ()

let paging_cfg seed =
  Parallel.Sharded.paging_config ~shards:4 ~refs_per_shard:150
    ~frames_per_shard:6 ~pages_per_shard:12 ~seed ()

(* For every seed, merging the K-shard streams at execution widths 1,
   2 and 4 yields byte-identical traces and identical reports: the
   domain count is a width, never an input. *)
let prop_alloc_merge_width_independent =
  QCheck.Test.make ~name:"alloc merge independent of domains" ~count:8
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cfg = alloc_cfg seed in
      let ref_report, ref_trace =
        collect (fun obs -> Parallel.Sharded.run_alloc ~obs ~domains:1 cfg)
      in
      List.for_all
        (fun domains ->
          let report, trace =
            collect (fun obs -> Parallel.Sharded.run_alloc ~obs ~domains cfg)
          in
          report = ref_report && trace = ref_trace)
        [ 1; 2; 4 ])

let prop_paging_merge_width_independent =
  QCheck.Test.make ~name:"paging merge independent of domains" ~count:5
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cfg = paging_cfg seed in
      let ref_report, ref_trace =
        collect (fun obs -> Parallel.Sharded.run_paging ~obs ~domains:1 cfg)
      in
      List.for_all
        (fun domains ->
          let report, trace =
            collect (fun obs -> Parallel.Sharded.run_paging ~obs ~domains cfg)
          in
          report = ref_report && trace = ref_trace)
        [ 1; 2; 4 ])

(* --- Obs.Check over merged streams --- *)

let segment_events () =
  (* The same splice `run x11_parallel --trace` performs: alloc as run
     segment 0, paging as run segment 1 shifted past the alloc clocks. *)
  let buf = ref [] in
  let file_sink = Obs.Sink.collect (fun ev -> buf := ev :: !buf) in
  let collect_raw runner =
    let raw = ref [] in
    let sink = Obs.Sink.collect (fun ev -> raw := ev :: !raw) in
    let report = runner sink in
    (report, Array.of_list (List.rev !raw))
  in
  let a_report, a_ev =
    collect_raw (fun obs ->
        Parallel.Sharded.run_alloc ~obs ~domains:2 (alloc_cfg 0))
  in
  let _, p_ev =
    collect_raw (fun obs ->
        Parallel.Sharded.run_paging ~obs ~domains:2 (paging_cfg 0))
  in
  let alloc_end =
    Array.fold_left
      (fun acc (s : Parallel.Sharded.shard_alloc) -> max acc s.sa_elapsed_us)
      0 a_report.Parallel.Sharded.ar_shards
  in
  let emit ~config ~run ~offset events =
    let s = Obs.Sink.segment ~config ~run ~offset file_sink in
    Array.iter (fun ev -> Obs.Sink.emit s ev) events
  in
  emit ~config:"test par_alloc shards=4" ~run:0 ~offset:0 a_ev;
  emit ~config:"test par_paging shards=4" ~run:1 ~offset:(alloc_end + 1) p_ev;
  List.rev !buf

let test_merged_stream_check_clean () =
  let events = segment_events () in
  check_bool "has events" true (List.length events > 100);
  let report = Obs.Check.check_events events in
  if not (Obs.Check.ok report) then begin
    Obs.Check.print report;
    Alcotest.fail "merged stream violated trace invariants"
  end

let test_merged_fixture_check_clean () =
  match Obs.Artifact.read_lines "fixtures/merged_par_trace.jsonl" with
  | Error e -> Alcotest.failf "fixture unreadable: %s" e
  | Ok lines ->
    let report = Obs.Check.check_lines lines in
    if not (Obs.Check.ok report) then begin
      Obs.Check.print report;
      Alcotest.fail "committed merged fixture violated trace invariants"
    end

(* --- Obs.Merge edge cases --- *)

let mk t kind = Obs.Event.make ~t_us:t kind

let jsons evs = Array.to_list evs |> List.map Obs.Event.to_json

let test_merge_degenerate_streams () =
  check_int "no streams" 0 (Array.length (Obs.Merge.interleave [||]));
  check_int "empty streams" 0
    (Array.length (Obs.Merge.interleave [| [||]; [||]; [||] |]));
  let sink = Obs.Sink.collect (fun _ -> ()) in
  check_int "emit of nothing" 0 (Obs.Merge.emit ~into:sink [||])

let test_merge_single_stream_identity () =
  (* One stream, mixed io and non-io: the merge must be the identity. *)
  let s =
    [|
      mk 5 (Obs.Event.Alloc { addr = 0; size = 8 });
      mk 10 (Obs.Event.Io_start { req = 0; page = 3; io = Obs.Event.Prefetch });
      mk 20 (Obs.Event.Alloc { addr = 8; size = 8 });
      mk 12 (Obs.Event.Io_done { req = 0; page = 3; io = Obs.Event.Prefetch });
      mk 30 (Obs.Event.Free { addr = 0; size = 8 });
    |]
  in
  let merged = Obs.Merge.interleave [| s |] in
  check_bool "identity on a single stream" true (jsons merged = jsons s)

let test_merge_all_io_streams_check_clean () =
  (* Streams with no non-io events never advance their engine time, so
     the merge falls back to stream order — and must still pass the
     trace invariants as one run segment. *)
  let io_pair base_req base_page t0 =
    [|
      mk t0
        (Obs.Event.Io_start { req = base_req; page = base_page; io = Obs.Event.Prefetch });
      mk (t0 + 30)
        (Obs.Event.Io_done { req = base_req; page = base_page; io = Obs.Event.Prefetch });
      mk (t0 + 40)
        (Obs.Event.Io_start
           { req = base_req + 1; page = base_page + 1; io = Obs.Event.Prefetch });
      mk (t0 + 80)
        (Obs.Event.Io_done
           { req = base_req + 1; page = base_page + 1; io = Obs.Event.Prefetch });
    |]
  in
  let s0 = io_pair 0 0 10 and s1 = io_pair 100 100 15 in
  let merged = Obs.Merge.interleave [| s0; s1 |] in
  check_int "all events survive" 8 (Array.length merged);
  check_bool "all-io ties break by stream index" true
    (jsons merged = jsons s0 @ jsons s1);
  let boundary =
    Obs.Event.make ~t_us:0
      (Obs.Event.Run_start { run = 0; seed = None; config = None })
  in
  let report = Obs.Check.check_events (boundary :: Array.to_list merged) in
  if not (Obs.Check.ok report) then begin
    Obs.Check.print report;
    Alcotest.fail "merged all-io stream violated trace invariants"
  end

(* --- Per-shard telemetry: width-invariant, recovery-invariant --------- *)

let snap_key (s : Obs.Telemetry.snapshot) =
  (s.Obs.Telemetry.sn_seq, s.sn_t_us, s.sn_shard, s.sn_counters, s.sn_gauges)

let test_telemetry_width_invariant () =
  let cfg = alloc_cfg 11 in
  let tele domains =
    (Parallel.Sharded.run_alloc ~telemetry:500 ~domains cfg)
      .Parallel.Sharded.ar_telemetry
  in
  let reference = tele 1 in
  check_bool "alloc telemetry captured" true (Array.length reference > 0);
  check_bool "every shard produced a stream" true
    (List.for_all
       (fun shard ->
         Array.exists
           (fun s -> s.Obs.Telemetry.sn_shard = Some shard)
           reference)
       [ 0; 1; 2; 3 ]);
  check_bool "merged telemetry identical at widths 2 and 4" true
    (List.for_all
       (fun domains -> Array.map snap_key (tele domains) = Array.map snap_key reference)
       [ 2; 4 ]);
  check_bool "merged stream passes Telemetry.check" true
    (Obs.Telemetry.check (Array.to_list reference) = []);
  let p_cfg = paging_cfg 11 in
  let p_tele domains =
    (Parallel.Sharded.run_paging ~telemetry:500 ~domains p_cfg)
      .Parallel.Sharded.pr_telemetry
  in
  let p_ref = p_tele 1 in
  check_bool "paging telemetry captured" true (Array.length p_ref > 0);
  check_bool "paging telemetry width-invariant" true
    (Array.map snap_key (p_tele 4) = Array.map snap_key p_ref)

let test_telemetry_off_by_default () =
  let r = Parallel.Sharded.run_alloc ~domains:1 (alloc_cfg 11) in
  check_int "no telemetry unless asked" 0
    (Array.length r.Parallel.Sharded.ar_telemetry)

let test_supervised_telemetry_matches_fault_free () =
  let cfg = alloc_cfg 13 in
  let fault_free =
    (Parallel.Sharded.run_alloc ~telemetry:500 ~domains:1 cfg)
      .Parallel.Sharded.ar_telemetry
  in
  let kills =
    List.map
      (fun (shard, progress) ->
        {
          Parallel.Supervisor.k_shard = shard;
          k_attempt = 0;
          k_progress = progress;
          k_stall = false;
        })
      [ (0, 150); (2, 40) ]
  in
  match
    Parallel.Sharded.run_alloc_supervised ~telemetry:500 ~kills ~checkpoint_every:64
      ~domains:2 cfg
  with
  | Error f -> Alcotest.failf "escalated: %s" (Resilience.Failure.to_string f)
  | Ok (report, _) ->
    check_bool "crash-recovered telemetry is the fault-free telemetry" true
      (Array.map snap_key report.Parallel.Sharded.ar_telemetry
      = Array.map snap_key fault_free)

let test_watchdog_escalation_is_typed_and_atomic () =
  let cfg = alloc_cfg 17 in
  let rule =
    match Obs.Watch.parse "ev.alloc>0@1!" with
    | Ok r -> r
    | Error e -> Alcotest.failf "rule refused: %s" e
  in
  let emitted = ref 0 in
  let obs = Obs.Sink.collect (fun _ -> incr emitted) in
  (match
     Parallel.Sharded.run_alloc_supervised ~obs ~telemetry:500 ~watch:[ rule ]
       ~domains:2 cfg
   with
   | Ok _ -> Alcotest.fail "an always-firing escalating rule did not trip"
   | Error (Resilience.Failure.Watchdog_tripped { rule = name; shard; at_us }) ->
     Alcotest.(check string) "failure names the rule" "ev.alloc>0@1!" name;
     check_int "lowest violating shard wins" 0 shard;
     check_bool "stamped with the snapshot time" true (at_us > 0);
     check_int "nothing emitted before the abort" 0 !emitted
   | Error f ->
     Alcotest.failf "wrong failure class: %s" (Resilience.Failure.to_string f));
  (* a non-escalating version of the same rule only annotates *)
  let tame = { rule with Obs.Watch.escalate = false } in
  match
    Parallel.Sharded.run_alloc_supervised ~telemetry:500 ~watch:[ tame ] ~domains:2
      cfg
  with
  | Ok _ -> ()
  | Error f ->
    Alcotest.failf "non-escalating rule aborted the run: %s"
      (Resilience.Failure.to_string f)

(* --- Shard count is a workload input (changing it may change results) --- *)

let test_shard_count_is_workload () =
  let run shards =
    let cfg =
      Parallel.Sharded.alloc_config ~shards ~ops_per_shard:300
        ~slots_per_shard:64 ~slot_words:8 ~seed:0 ()
    in
    Parallel.Sharded.run_alloc ~domains:1 cfg
  in
  let r2 = run 2 and r4 = run 4 in
  check_int "2 shards" 2 (Array.length r2.Parallel.Sharded.ar_shards);
  check_int "4 shards" 4 (Array.length r4.Parallel.Sharded.ar_shards)

(* --- Supervised execution ----------------------------------------------

   The contract under test: for any kill schedule that does not exhaust
   a restart budget, the merged engine trace and the report of a
   supervised run are bit-identical to the unsupervised (zero-fault)
   run at every width — recovery is invisible — and the supervision
   stream is itself deterministic. *)

let temp_dir () =
  let path = Filename.temp_file "dsas_parallel" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Oldest-first JSON traces. *)
let collect_fwd runner =
  let buf = ref [] in
  let sink = Obs.Sink.collect (fun ev -> buf := ev :: !buf) in
  let r = runner sink in
  (r, List.rev_map Obs.Event.to_json !buf)

let collect_supervised runner =
  let eng = ref [] and sup = ref [] in
  let obs = Obs.Sink.collect (fun ev -> eng := ev :: !eng) in
  let supervision = Obs.Sink.collect (fun ev -> sup := ev :: !sup) in
  let r = runner ~obs ~supervision in
  (r, List.rev_map Obs.Event.to_json !eng, List.rev_map Obs.Event.to_json !sup)

let kill ?(stall = false) shard ~attempt ~progress =
  {
    Parallel.Supervisor.k_shard = shard;
    k_attempt = attempt;
    k_progress = progress;
    k_stall = stall;
  }

let test_supervised_zero_fault_identity () =
  let a_cfg = alloc_cfg 42 in
  let a_ref, a_trace =
    collect_fwd (fun obs -> Parallel.Sharded.run_alloc ~obs ~domains:2 a_cfg)
  in
  (match
     collect_supervised (fun ~obs ~supervision ->
         Parallel.Sharded.run_alloc_supervised ~obs ~supervision
           ~checkpoint_every:64 ~domains:2 a_cfg)
   with
   | Error f, _, _ ->
     Alcotest.failf "alloc escalated: %s" (Resilience.Failure.to_string f)
   | Ok (report, outcomes), trace, sup ->
     check_bool "alloc report identical" true (report = a_ref);
     check_bool "alloc engine trace identical" true (trace = a_trace);
     check_bool "no faults suffered" true
       (Array.for_all
          (fun (o : Parallel.Supervisor.outcome) ->
            o.Parallel.Supervisor.o_crashes = 0
            && o.Parallel.Supervisor.o_restarts = 0)
          outcomes);
     check_bool "checkpoints still taken" true
       (Array.for_all
          (fun (o : Parallel.Supervisor.outcome) ->
            o.Parallel.Supervisor.o_checkpoints > 0)
          outcomes);
     check_bool "supervision stream carries them" true (sup <> []));
  let p_cfg = paging_cfg 42 in
  let p_ref, p_trace =
    collect_fwd (fun obs -> Parallel.Sharded.run_paging ~obs ~domains:2 p_cfg)
  in
  match
    collect_supervised (fun ~obs ~supervision ->
        Parallel.Sharded.run_paging_supervised ~obs ~supervision
          ~checkpoint_every:32 ~domains:2 p_cfg)
  with
  | Error f, _, _ ->
    Alcotest.failf "paging escalated: %s" (Resilience.Failure.to_string f)
  | Ok (report, _), trace, _ ->
    check_bool "paging report identical" true (report = p_ref);
    check_bool "paging engine trace identical" true (trace = p_trace)

(* A seeded kill schedule: up to two faults per shard (inside the
   default budget of three restarts), occasionally a stall. *)
let drawn_kills seed ~shards ~steps =
  let rng = Sim.Rng.create (seed lxor 0x51AB) in
  List.concat
    (List.init shards (fun s ->
         let n = Sim.Rng.int rng 3 in
         List.init n (fun attempt ->
             kill
               ~stall:(Sim.Rng.int rng 5 = 0)
               s ~attempt
               ~progress:(Sim.Rng.int_in rng 1 (steps - 1)))))

let prop_supervised_alloc_recovery =
  QCheck.Test.make ~name:"alloc recovery bit-identical at every width"
    ~count:6
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cfg = alloc_cfg seed in
      let ref_report, ref_trace =
        collect_fwd (fun obs -> Parallel.Sharded.run_alloc ~obs ~domains:1 cfg)
      in
      let kills = drawn_kills seed ~shards:4 ~steps:300 in
      let sup_ref = ref None in
      List.for_all
        (fun domains ->
          match
            collect_supervised (fun ~obs ~supervision ->
                Parallel.Sharded.run_alloc_supervised ~obs ~supervision ~kills
                  ~checkpoint_every:64 ~domains cfg)
          with
          | Error _, _, _ -> false
          | Ok (report, _), trace, sup ->
            let sup_stable =
              match !sup_ref with
              | None ->
                sup_ref := Some sup;
                true
              | Some s -> s = sup
            in
            report = ref_report && trace = ref_trace && sup_stable)
        [ 1; 2; 4 ])

let prop_supervised_paging_recovery =
  QCheck.Test.make ~name:"paging recovery bit-identical at every width"
    ~count:3
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cfg = paging_cfg seed in
      let ref_report, ref_trace =
        collect_fwd (fun obs -> Parallel.Sharded.run_paging ~obs ~domains:1 cfg)
      in
      let kills = drawn_kills (seed + 1) ~shards:4 ~steps:150 in
      List.for_all
        (fun domains ->
          match
            collect_supervised (fun ~obs ~supervision ->
                Parallel.Sharded.run_paging_supervised ~obs ~supervision ~kills
                  ~checkpoint_every:32 ~domains cfg)
          with
          | Error _, _, _ -> false
          | Ok (report, _), trace, _ ->
            report = ref_report && trace = ref_trace)
        [ 1; 2; 4 ])

let test_supervised_escalates_shard_crashed () =
  let cfg = alloc_cfg 3 in
  (* Four crashes on shard 1, one per attempt: the default budget of
     three restarts is spent and the fourth fault escalates. *)
  let kills = List.init 4 (fun a -> kill 1 ~attempt:a ~progress:17) in
  match
    Parallel.Sharded.run_alloc_supervised ~kills ~checkpoint_every:0 ~domains:2
      cfg
  with
  | Ok _ -> Alcotest.fail "restart budget exceeded yet the run succeeded"
  | Error (Resilience.Failure.Shard_crashed { shard; restarts; _ }) ->
    check_int "escalating shard" 1 shard;
    check_int "budget consumed" 3 restarts
  | Error f ->
    Alcotest.failf "wrong failure class: %s" (Resilience.Failure.to_string f)

let test_supervised_escalates_shard_stalled () =
  let cfg = paging_cfg 3 in
  let kills = List.init 4 (fun a -> kill ~stall:true 2 ~attempt:a ~progress:9) in
  match
    Parallel.Sharded.run_paging_supervised ~kills ~checkpoint_every:0 ~domains:2
      cfg
  with
  | Ok _ -> Alcotest.fail "restart budget exceeded yet the run succeeded"
  | Error (Resilience.Failure.Shard_stalled { shard; restarts; _ }) ->
    check_int "escalating shard" 2 shard;
    check_int "budget consumed" 3 restarts
  | Error f ->
    Alcotest.failf "wrong failure class: %s" (Resilience.Failure.to_string f)

let test_supervised_checkpoint_dir_mirrors () =
  with_temp_dir (fun dir ->
      let cfg = alloc_cfg 5 in
      let _, ref_trace =
        collect_fwd (fun obs -> Parallel.Sharded.run_alloc ~obs ~domains:1 cfg)
      in
      let kills = [ kill 0 ~attempt:0 ~progress:100 ] in
      match
        collect_supervised (fun ~obs ~supervision ->
            Parallel.Sharded.run_alloc_supervised ~obs ~supervision ~kills
              ~checkpoint_every:32 ~checkpoint_dir:dir ~domains:2 cfg)
      with
      | Error f, _, _ ->
        Alcotest.failf "escalated: %s" (Resilience.Failure.to_string f)
      | Ok (_, outcomes), trace, _ ->
        check_bool "recovered trace identical" true (trace = ref_trace);
        check_int "shard 0 crashed once" 1
          outcomes.(0).Parallel.Supervisor.o_crashes;
        check_bool "checkpoint mirrored to disk" true
          (Sys.file_exists (Filename.concat dir "shard0.ckpt")))

(* --- Supervisor over a synthetic body: resume and poisoning --- *)

(* Sums 1..steps, resuming from the checkpoint payload; [executed]
   counts body iterations across attempts so a test can prove the
   resume actually skipped work. *)
let sum_body ~steps ~executed ~resume ctl =
  let start, acc0 =
    match resume with
    | Some ck ->
      (ck.Parallel.Checkpoint.ck_progress, ck.Parallel.Checkpoint.ck_payload.(0))
    | None -> (0, 0)
  in
  let acc = ref acc0 in
  for i = start + 1 to steps do
    acc := !acc + i;
    incr executed;
    Parallel.Supervisor.step ctl ~clock_us:(i * 10)
      ~snapshot:(fun () ->
        {
          Parallel.Supervisor.sn_clock_us = i * 10;
          sn_rng = 0L;
          sn_payload = [| !acc |];
          sn_events = [||];
        })
  done;
  !acc

let test_supervise_resumes_from_checkpoint () =
  let executed = ref 0 in
  let store = Parallel.Checkpoint.store ~shard:0 () in
  let kills = [ kill 0 ~attempt:0 ~progress:10 ] in
  match
    Parallel.Supervisor.supervise
      ~inject:(Parallel.Supervisor.inject_of_kills kills)
      ~checkpoint_every:4 ~store ~shard:0
      ~run:(fun ~resume ctl -> sum_body ~steps:20 ~executed ~resume ctl)
  with
  | Error f -> Alcotest.failf "escalated: %s" (Resilience.Failure.to_string f)
  | Ok (sum, o) ->
    check_int "sum unaffected by the crash" 210 sum;
    check_int "one crash" 1 o.Parallel.Supervisor.o_crashes;
    check_int "one restart" 1 o.Parallel.Supervisor.o_restarts;
    (* attempt 0 ran steps 1..10; attempt 1 resumed at the progress-8
       checkpoint and ran 9..20 — 22 iterations, not 30: the restart
       really resumed mid-run instead of starting over *)
    check_int "resumed from the checkpoint" 22 !executed;
    check_bool "checkpoints taken" true (o.Parallel.Supervisor.o_checkpoints >= 2)

let test_supervise_poisons_inconsistent_checkpoint () =
  let store = Parallel.Checkpoint.store ~shard:2 () in
  let kills = [ kill 2 ~attempt:0 ~progress:8 ] in
  let scratch_runs = ref 0 in
  match
    Parallel.Supervisor.supervise
      ~inject:(Parallel.Supervisor.inject_of_kills kills)
      ~checkpoint_every:4 ~store ~shard:2
      ~run:(fun ~resume ctl ->
        match resume with
        | Some _ ->
          (* the body's verification rejects the checkpoint *)
          raise (Parallel.Checkpoint.Inconsistent "replay digest mismatch")
        | None ->
          incr scratch_runs;
          sum_body ~steps:12 ~executed:(ref 0) ~resume:None ctl)
  with
  | Error f -> Alcotest.failf "escalated: %s" (Resilience.Failure.to_string f)
  | Ok (sum, o) ->
    check_int "correct result after poisoning" 78 sum;
    (* injected crash + rejected checkpoint = two faults, two restarts;
       the second restart saw a cleared checkpoint and started over *)
    check_int "two crashes" 2 o.Parallel.Supervisor.o_crashes;
    check_int "two restarts" 2 o.Parallel.Supervisor.o_restarts;
    check_int "post-poison attempt ran from scratch" 2 !scratch_runs

(* --- Checkpoint store: disk mirror, torn writes --- *)

let sample_state shard =
  {
    Parallel.Checkpoint.ck_shard = shard;
    ck_progress = 128;
    ck_clock_us = 6400;
    ck_rng = Sim.Rng.state (Sim.Rng.create 7);
    ck_payload = [| 1; 2; 3 |];
    ck_events =
      [|
        Obs.Event.make ~t_us:5 (Obs.Event.Alloc { addr = 0; size = 8 });
        Obs.Event.make ~t_us:9 (Obs.Event.Free { addr = 0; size = 8 });
      |];
  }

let test_checkpoint_disk_roundtrip () =
  with_temp_dir (fun dir ->
      let st = Parallel.Checkpoint.store ~dir ~shard:3 () in
      let state = sample_state 3 in
      Parallel.Checkpoint.save st state;
      (* a fresh store over the same directory reads the mirror *)
      let st2 = Parallel.Checkpoint.store ~dir ~shard:3 () in
      (match Parallel.Checkpoint.load st2 with
       | None -> Alcotest.fail "mirrored checkpoint not found"
       | Some s ->
         check_int "shard" 3 s.Parallel.Checkpoint.ck_shard;
         check_int "progress" 128 s.Parallel.Checkpoint.ck_progress;
         check_int "clock" 6400 s.Parallel.Checkpoint.ck_clock_us;
         check_bool "rng state" true
           (s.Parallel.Checkpoint.ck_rng = state.Parallel.Checkpoint.ck_rng);
         check_bool "payload" true
           (s.Parallel.Checkpoint.ck_payload = [| 1; 2; 3 |]);
         check_bool "event prefix" true
           (Array.map Obs.Event.to_json s.Parallel.Checkpoint.ck_events
           = Array.map Obs.Event.to_json state.Parallel.Checkpoint.ck_events));
      (* clear wipes memory and disk *)
      Parallel.Checkpoint.clear st2;
      check_bool "cleared on disk too" true
        (Parallel.Checkpoint.load (Parallel.Checkpoint.store ~dir ~shard:3 ())
        = None))

let test_checkpoint_torn_file_is_no_checkpoint () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "shard0.ckpt" in
      let reload () =
        Parallel.Checkpoint.load (Parallel.Checkpoint.store ~dir ~shard:0 ())
      in
      let st = Parallel.Checkpoint.store ~dir ~shard:0 () in
      Parallel.Checkpoint.save st (sample_state 0);
      let whole =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      check_bool "intact mirror loads" true (reload () <> None);
      (* a torn write: the file ends mid-record *)
      let oc = open_out_bin path in
      output_string oc (String.sub whole 0 (String.length whole / 2));
      close_out oc;
      check_bool "torn mirror means no checkpoint" true (reload () = None);
      (* garbage is equally survivable *)
      let oc = open_out_bin path in
      output_string oc "this is not a checkpoint\n";
      close_out oc;
      check_bool "garbage mirror means no checkpoint" true (reload () = None);
      (* a header claiming far more events than the body holds *)
      let header = List.hd (String.split_on_char '\n' whole) in
      let inflated =
        match Obs.Json.flat header with
        | Some fields ->
          Obs.Json.to_string
            (Obs.Json.Obj
               (List.map
                  (fun (k, v) -> if k = "events" then (k, Obs.Json.Int 1_000_000_000_000) else (k, v))
                  fields))
        | None -> Alcotest.fail "checkpoint header unreadable"
      in
      let oc = open_out_bin path in
      output_string oc (inflated ^ "\n");
      close_out oc;
      check_bool "inflated event count means no checkpoint" true (reload () = None);
      (* another shard's intact checkpoint, copied over this shard's *)
      let other = Parallel.Checkpoint.store ~dir ~shard:1 () in
      Parallel.Checkpoint.save other (sample_state 1);
      let ic = open_in_bin (Filename.concat dir "shard1.ckpt") in
      let theirs = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc theirs;
      close_out oc;
      check_bool "another shard's mirror means no checkpoint" true (reload () = None);
      (* and a missing file *)
      Sys.remove path;
      check_bool "missing mirror means no checkpoint" true (reload () = None))

(* --- Pool: a raising shard must not leak running domains --- *)

let test_pool_joins_all_before_reraise () =
  (* shards 8 over 4 workers: worker 3 owns shards 3 and 7 and dies on
     shard 3; the other three workers (six shards) must be joined —
     their writes visible — before the exception reaches the caller. *)
  let finished = Atomic.make 0 in
  (match
     Parallel.Pool.map_shards ~domains:4 ~shards:8 (fun s ->
         if s = 3 then failwith "shard 3 boom";
         Unix.sleepf 0.02;
         Atomic.incr finished;
         s)
   with
   | _ -> Alcotest.fail "exception swallowed"
   | exception Failure m -> Alcotest.(check string) "the shard's exn" "shard 3 boom" m);
  check_int "every surviving worker ran to completion and was joined" 6
    (Atomic.get finished)

(* --- The committed recovered-trace fixture --- *)

let read_whole path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let test_recovered_fixture_check_clean () =
  let path = "fixtures/recovered_par_trace.jsonl" in
  let body = read_whole path in
  (* the fixture really is a recovered run: supervision segments present *)
  check_bool "records crashes" true (contains_substring body "shard_crash");
  check_bool "records restarts" true (contains_substring body "shard_restart");
  check_bool "records checkpoints" true
    (contains_substring body "shard_checkpoint");
  match Obs.Artifact.read_lines path with
  | Error e -> Alcotest.failf "fixture unreadable: %s" e
  | Ok lines ->
    let report = Obs.Check.check_lines lines in
    if not (Obs.Check.ok report) then begin
      Obs.Check.print report;
      Alcotest.fail "committed recovered fixture violated trace invariants"
    end

(* Both supervised entry points check their arguments before any shard
   runs: a zero telemetry cadence is refused under the entry point's own
   name, with no checkpoint directory created and nothing emitted. *)
let test_supervised_rejects_zero_cadence () =
  with_temp_dir (fun dir ->
      let emitted = ref 0 in
      let obs = Obs.Sink.collect (fun _ -> incr emitted) in
      let rejects name run =
        match run () with
        | _ -> Alcotest.failf "%s accepted a zero telemetry cadence" name
        | exception Invalid_argument msg ->
          Alcotest.(check string) "own message" (name ^ ": telemetry cadence < 1") msg
      in
      rejects "Sharded.run_alloc_supervised" (fun () ->
          Parallel.Sharded.run_alloc_supervised ~obs ~telemetry:0 ~checkpoint_every:8
            ~checkpoint_dir:dir ~domains:2 (alloc_cfg 1));
      rejects "Sharded.run_paging_supervised" (fun () ->
          Parallel.Sharded.run_paging_supervised ~obs ~telemetry:0 ~checkpoint_every:8
            ~checkpoint_dir:dir ~domains:2 (paging_cfg 1));
      check_bool "no shard ran: no checkpoint directory" false (Sys.file_exists dir);
      check_int "nothing emitted" 0 !emitted)

(* --- The --kill-shard parser --- *)

let test_parse_kills_valid () =
  let parses spec expected =
    match Parallel.Supervisor.parse_kills spec with
    | Ok ks -> check_bool spec true (ks = expected)
    | Error e -> Alcotest.failf "%S rejected: %s" spec e
  in
  parses "0@50,2@120,0@400"
    [ kill 0 ~attempt:0 ~progress:50; kill 2 ~attempt:0 ~progress:120;
      kill 0 ~attempt:1 ~progress:400 ];
  (* a repeated shard numbers its attempts in listed order *)
  parses " 3 @ 7 , 3@9,1@1, 3@2 "
    [ kill 3 ~attempt:0 ~progress:7; kill 3 ~attempt:1 ~progress:9;
      kill 1 ~attempt:0 ~progress:1; kill 3 ~attempt:2 ~progress:2 ];
  parses "0@500,0@500,0@500,0@500"
    (List.init 4 (fun a -> kill 0 ~attempt:a ~progress:500))

let test_parse_kills_rejects () =
  List.iter
    (fun spec ->
      match Parallel.Supervisor.parse_kills spec with
      | Ok _ -> Alcotest.failf "%S accepted" spec
      | Error msg ->
        check_bool ("quotes the spec: " ^ msg) true
          (contains_substring msg (Printf.sprintf "%S" spec)))
    [
      (* bad syntax *)
      "0-50"; "0@5@6"; "a@5"; "0@x"; "0@5;1@6";
      (* S < 0 and P < 1 *)
      "-1@5"; "0@0"; "2@-3";
      (* empty parts *)
      ""; ","; "0@5,,1@3"; "0@5,"; "@5"; "0@"; " @ ";
      (* out-of-range integers *)
      "99999999999999999999@5"; "0@99999999999999999999";
    ]

(* A kill fires only at a shard the workload runs and at a step it
   reaches: the last shard and the last step are the bounds. *)
let test_check_kills () =
  let check ks = Parallel.Supervisor.check_kills ~shards:4 ~steps:150 ~checkpoint_every:32 ks in
  check_bool "last shard, last step" true
    (check [ kill 3 ~attempt:0 ~progress:150; kill 0 ~attempt:0 ~progress:1 ] = Ok ());
  List.iter
    (fun (k, what) ->
      match check [ kill 0 ~attempt:0 ~progress:5; k ] with
      | Ok () -> Alcotest.failf "%s accepted" what
      | Error msg ->
        check_bool ("names the kill: " ^ msg) true
          (contains_substring msg
             (Printf.sprintf "%d@%d" k.Parallel.Supervisor.k_shard k.k_progress)))
    [
      (kill 4 ~attempt:0 ~progress:5, "shard past the last");
      (kill 0 ~attempt:1 ~progress:151, "step past the last");
    ];
  check_bool "x11 quick: the paging engine's 2000 steps bound both" true
    (Experiments.X11_parallel.check_kills ~quick:true [ kill 3 ~attempt:0 ~progress:2000 ]
     = Ok ()
    && Experiments.X11_parallel.check_kills ~quick:true [ kill 0 ~attempt:0 ~progress:2001 ]
       <> Ok ());
  check_bool "chaos quick: 150 steps" true
    (Experiments.Par_chaos.check_kills ~quick:true [ kill 0 ~attempt:0 ~progress:151 ] <> Ok ()
    && Experiments.Par_chaos.check_kills ~quick:false [ kill 0 ~attempt:0 ~progress:600 ]
       = Ok ())

(* A kill at step P resumes the shard's next attempt from the last
   checkpoint below P, so that attempt's kill must name a later step. *)
let test_check_kills_after_resume () =
  let check ~every ks =
    Parallel.Supervisor.check_kills ~shards:4 ~steps:150 ~checkpoint_every:every ks
  in
  let twice p q = [ kill 0 ~attempt:0 ~progress:p; kill 0 ~attempt:1 ~progress:q ] in
  check_bool "100 resumes from 96: 97 fires, 96 does not" true
    (check ~every:32 (twice 100 97) = Ok () && check ~every:32 (twice 100 96) <> Ok ());
  check_bool "a kill on a checkpoint step resumes from the one before" true
    (check ~every:32 (twice 64 33) = Ok () && check ~every:32 (twice 64 32) <> Ok ());
  check_bool "each shard resumes on its own" true
    (check ~every:32 [ kill 0 ~attempt:0 ~progress:100; kill 1 ~attempt:0 ~progress:10 ]
     = Ok ());
  check_bool "without checkpoints every attempt starts over" true
    (check ~every:0 (twice 100 1) = Ok ());
  (match check ~every:32 (twice 100 10) with
   | Ok () -> Alcotest.fail "kill before the resume step accepted"
   | Error msg ->
     check_bool ("names the kill and the resume step: " ^ msg) true
       (contains_substring msg "0@10" && contains_substring msg "step 96"));
  check_bool "x11 checkpoints every 256 steps" true
    (Experiments.X11_parallel.check_kills ~quick:true (twice 400 100) <> Ok ()
    && Experiments.X11_parallel.check_kills ~quick:true (twice 400 257) = Ok ());
  check_bool "chaos checkpoints every 32 steps" true
    (Experiments.Par_chaos.check_kills ~quick:true (twice 100 10) <> Ok ()
    && Experiments.Par_chaos.check_kills ~quick:true (twice 100 97) = Ok ())

(* check_kills accepts a kill list exactly when the supervisor fires
   every kill in it: the resume rule is held to [supervise] itself. *)
let prop_check_kills_matches_supervise =
  QCheck.Test.make ~name:"check_kills accepts exactly the kills that fire" ~count:300
    QCheck.(pair (int_range 0 8) (list_of_size Gen.(int_range 1 3) (int_range 1 20)))
    (fun (every, steps) ->
      let kills = List.mapi (fun attempt progress -> kill 0 ~attempt ~progress) steps in
      let store = Parallel.Checkpoint.store ~shard:0 () in
      match
        Parallel.Supervisor.supervise
          ~inject:(Parallel.Supervisor.inject_of_kills kills)
          ~checkpoint_every:every ~store ~shard:0
          ~run:(fun ~resume ctl -> sum_body ~steps:20 ~executed:(ref 0) ~resume ctl)
      with
      | Error _ -> false
      | Ok (_, o) ->
        let fired = o.Parallel.Supervisor.o_crashes = List.length kills in
        let accepted =
          Parallel.Supervisor.check_kills ~shards:1 ~steps:20 ~checkpoint_every:every kills
          = Ok ()
        in
        fired = accepted)

let () =
  Alcotest.run "parallel"
    [
      ( "freestack",
        [
          Alcotest.test_case "lifo" `Quick test_freestack_lifo;
          Alcotest.test_case "interleaved" `Quick test_freestack_interleaved;
        ] );
      ( "fixed_alloc",
        [
          Alcotest.test_case "exhaustion" `Quick test_fixed_alloc_exhaustion;
          Alcotest.test_case "free/realloc" `Quick test_fixed_alloc_free_realloc;
          Alcotest.test_case "bad free" `Quick test_fixed_alloc_rejects_bad_free;
          Alcotest.test_case "total stats" `Quick test_fixed_alloc_total_stats;
        ] );
      ( "pool",
        [
          Alcotest.test_case "shard order" `Quick test_pool_shard_order;
          Alcotest.test_case "zero shards" `Quick test_pool_zero_shards;
          Alcotest.test_case "bad domains" `Quick test_pool_rejects_bad_domains;
          Alcotest.test_case "exn propagation" `Quick test_pool_propagates_exn;
          Alcotest.test_case "joins all before reraise" `Quick
            test_pool_joins_all_before_reraise;
        ] );
      ( "merge",
        [
          Alcotest.test_case "degenerate streams" `Quick
            test_merge_degenerate_streams;
          Alcotest.test_case "single stream is the identity" `Quick
            test_merge_single_stream_identity;
          Alcotest.test_case "all-io streams check clean" `Quick
            test_merge_all_io_streams_check_clean;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_alloc_merge_width_independent;
          QCheck_alcotest.to_alcotest prop_paging_merge_width_independent;
          Alcotest.test_case "shard count is workload" `Quick
            test_shard_count_is_workload;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "width-invariant snapshots" `Quick
            test_telemetry_width_invariant;
          Alcotest.test_case "off by default" `Quick test_telemetry_off_by_default;
          Alcotest.test_case "recovery-invariant snapshots" `Quick
            test_supervised_telemetry_matches_fault_free;
          Alcotest.test_case "watchdog escalation typed and atomic" `Quick
            test_watchdog_escalation_is_typed_and_atomic;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "zero-fault run is the unsupervised run" `Quick
            test_supervised_zero_fault_identity;
          QCheck_alcotest.to_alcotest prop_supervised_alloc_recovery;
          QCheck_alcotest.to_alcotest prop_supervised_paging_recovery;
          Alcotest.test_case "crash escalation is typed" `Quick
            test_supervised_escalates_shard_crashed;
          Alcotest.test_case "stall escalation is typed" `Quick
            test_supervised_escalates_shard_stalled;
          Alcotest.test_case "checkpoint dir mirrors and recovers" `Quick
            test_supervised_checkpoint_dir_mirrors;
          Alcotest.test_case "restart resumes from the checkpoint" `Quick
            test_supervise_resumes_from_checkpoint;
          Alcotest.test_case "inconsistent checkpoint is poisoned" `Quick
            test_supervise_poisons_inconsistent_checkpoint;
          Alcotest.test_case "zero cadence refused up front" `Quick
            test_supervised_rejects_zero_cadence;
        ] );
      ( "kill-shard",
        [
          Alcotest.test_case "valid specs and attempts" `Quick test_parse_kills_valid;
          Alcotest.test_case "bad specs are errors" `Quick test_parse_kills_rejects;
          Alcotest.test_case "kills past the workload are errors" `Quick test_check_kills;
          Alcotest.test_case "kills before the resume step are errors" `Quick
            test_check_kills_after_resume;
          QCheck_alcotest.to_alcotest prop_check_kills_matches_supervise;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "disk round-trip" `Quick test_checkpoint_disk_roundtrip;
          Alcotest.test_case "torn or garbled mirror ignored" `Quick
            test_checkpoint_torn_file_is_no_checkpoint;
        ] );
      ( "check",
        [
          Alcotest.test_case "merged stream clean" `Quick
            test_merged_stream_check_clean;
          Alcotest.test_case "merged fixture clean" `Quick
            test_merged_fixture_check_clean;
          Alcotest.test_case "recovered fixture clean" `Quick
            test_recovered_fixture_check_clean;
        ] );
    ]
