(* The campaign cell catalogue: one parameterizable grid point per
   simulation family.  Each cell validates its parameters strictly,
   calls the grid point its experiment's [measure] runs (the X11 cells:
   the sharded engines), and records the results as gauges/counters in
   the cell's registry — exported by the executor as one
   dsas-metrics/1 file per grid point.

   At their defaults (seed 0, quick) four cells reproduce an experiment
   row exactly: paging is F3's drum row, placement C2's small-skewed
   best-fit row, multiprog C7's fixed-32-frames k=4 fetch_us=5000 row,
   and replacement with trace=zipf C3's zipf LRU point at 32 frames.
   Two streams differ from their experiment's: frag_unit draws at site
   31 where C1 draws at 2024, and the replacement cell draws its phases
   trace from a fresh site-555 stream where C3 draws it after its zipf
   trace. *)

let ( let* ) = Result.bind

let policies =
  [
    ("first-fit", Freelist.Policy.First_fit);
    ("next-fit", Freelist.Policy.Next_fit);
    ("best-fit", Freelist.Policy.Best_fit);
    ("worst-fit", Freelist.Policy.Worst_fit);
    ("two-ends", Freelist.Policy.Two_ends { small_max = 64 });
  ]

let specs ~frames =
  [
    ("fifo", Paging.Spec.Fifo);
    ("lru", Paging.Spec.Lru);
    ("clock", Paging.Spec.Clock);
    ("random", Paging.Spec.Random);
    ("nru", Paging.Spec.Nru);
    ("lfu", Paging.Spec.Lfu);
    ("atlas", Paging.Spec.Atlas);
    ("m44", Paging.Spec.M44);
    ("working-set", Paging.Spec.Working_set (2 * frames));
    ("opt", Paging.Spec.Opt);
  ]

let spec_names = List.map fst (specs ~frames:0)

(* --- paging: F3's one-program demand-paging run, device swept ------- *)

let paging_cell =
  let run (ctx : Cell.ctx) =
    let* () =
      Cell.check_known ctx [ "device"; "frames"; "refs"; "policy" ]
    in
    let* device =
      Cell.get_choice ctx "device" ~default:"drum"
        ~choices:(List.map (fun d -> (d.Memstore.Device.label, d)) Fig3.devices)
    in
    let* frames = Cell.get_int ctx "frames" ~default:12 in
    let* frames = Cell.require_positive "frames" frames in
    let* refs =
      Cell.get_int ctx "refs" ~default:(if ctx.quick then 2_000 else 20_000)
    in
    let* refs = Cell.require_positive "refs" refs in
    let* policy = Cell.get_choice ctx "policy" ~default:"lru" ~choices:(specs ~frames) in
    let r = Fig3.point ~obs:ctx.obs ~seed:ctx.seed ~frames ~policy ~refs device in
    Cell.gauge ctx "st.active" r.Fig3.active;
    Cell.gauge ctx "st.waiting" r.Fig3.waiting;
    Cell.gauge ctx "st.waiting_fraction" r.Fig3.waiting_fraction;
    Cell.count ctx "faults" r.Fig3.faults;
    Cell.count ctx "refs" r.Fig3.refs;
    Cell.count ctx "elapsed_us" r.Fig3.elapsed_us;
    Ok ()
  in
  {
    Cell.id = "paging";
    doc = "one program under timed demand paging (F3's family): space-time split";
    params =
      [
        ("device", "backing store: fast-drum | drum | slow-drum | disk (drum)");
        ("frames", "core frames (12)");
        ("refs", "trace length (20000; 2000 quick)");
        ("policy", "replacement policy (lru)");
      ];
    run;
  }

(* --- placement: C2's steady-state allocator run ---------------------- *)

let placement_cell =
  let run (ctx : Cell.ctx) =
    let* () =
      Cell.check_known ctx [ "policy"; "mix"; "steps"; "words"; "target_live" ]
    in
    let* policy = Cell.get_choice ctx "policy" ~default:"best-fit" ~choices:policies in
    let* mix =
      Cell.get_choice ctx "mix" ~default:"small-skewed"
        ~choices:
          [ ("small-skewed", C2_placement.Small_skewed); ("bimodal", C2_placement.Bimodal) ]
    in
    let* steps =
      Cell.get_int ctx "steps" ~default:(if ctx.quick then 2_000 else 25_000)
    in
    let* steps = Cell.require_positive "steps" steps in
    let* words = Cell.get_int ctx "words" ~default:(1 lsl 16) in
    let* words = Cell.require_positive "words" words in
    let* target_live = Cell.get_int ctx "target_live" ~default:400 in
    let* target_live = Cell.require_positive "target_live" target_live in
    let o =
      C2_placement.point ~obs:ctx.obs ~seed:ctx.seed ~words ~target_live ~steps ~mix
        policy
    in
    Cell.gauge ctx "frag.external" o.C2_placement.external_frag;
    Cell.gauge ctx "frag.holes" (float_of_int o.C2_placement.holes);
    Cell.gauge ctx "alloc.mean_search" o.C2_placement.mean_search;
    Cell.gauge ctx "alloc.largest_free" (float_of_int o.C2_placement.largest_free);
    Cell.count ctx "alloc.failures" o.C2_placement.failures;
    Cell.count ctx "live_words" o.C2_placement.live_words;
    Ok ()
  in
  {
    Cell.id = "placement";
    doc = "steady-state placement run (C2's family): fragmentation and search cost";
    params =
      [
        ("policy", "first-fit | next-fit | best-fit | worst-fit | two-ends (best-fit)");
        ("mix", "small-skewed | bimodal (small-skewed)");
        ("steps", "stream events (25000; 2000 quick)");
        ("words", "store size in words (65536)");
        ("target_live", "steady-state live objects (400)");
      ];
    run;
  }

(* --- replacement: C3's untimed fault-rate measurement ---------------- *)

let replacement_cell =
  let run (ctx : Cell.ctx) =
    let* () = Cell.check_known ctx [ "policy"; "trace"; "frames"; "refs" ] in
    let* frames = Cell.get_int ctx "frames" ~default:32 in
    let* frames = Cell.require_positive "frames" frames in
    let* refs =
      Cell.get_int ctx "refs" ~default:(if ctx.quick then 2_000 else 30_000)
    in
    let* refs = Cell.require_positive "refs" refs in
    let* spec = Cell.get_choice ctx "policy" ~default:"lru" ~choices:(specs ~frames) in
    let* shape =
      Cell.get_choice ctx "trace" ~default:"loop"
        ~choices:
          [
            ("loop", C3_replacement.Loop);
            ("phases", C3_replacement.Phases);
            ("zipf", C3_replacement.Zipf);
          ]
    in
    let trace =
      C3_replacement.trace (Sim.Rng.derive ~override:ctx.seed 555) ~length:refs shape
    in
    let r = C3_replacement.point ~obs:ctx.obs ~seed:ctx.seed ~frames spec trace in
    Cell.gauge ctx "fault_rate" (Paging.Fault_sim.fault_rate r);
    Cell.count ctx "faults" r.Paging.Fault_sim.faults;
    Cell.count ctx "cold_faults" r.Paging.Fault_sim.cold;
    Cell.count ctx "evictions" r.Paging.Fault_sim.evictions;
    Cell.count ctx "refs" r.Paging.Fault_sim.refs;
    Ok ()
  in
  {
    Cell.id = "replacement";
    doc = "untimed fault-rate run (C3's family): one policy, one trace, one size";
    params =
      [
        ("policy", String.concat " | " spec_names ^ " (lru)");
        ("trace", "loop | phases | zipf (loop)");
        ("frames", "core frames (32)");
        ("refs", "trace length (30000; 2000 quick)");
      ];
    run;
  }

(* --- multiprog: C7's utilization-vs-k grid point --------------------- *)

let multiprog_cell =
  let run (ctx : Cell.ctx) =
    let* () = Cell.check_known ctx [ "jobs"; "fetch_us"; "frames"; "refs_per_job" ] in
    let* jobs = Cell.get_int ctx "jobs" ~default:4 in
    let* jobs = Cell.require_positive "jobs" jobs in
    let* fetch_us = Cell.get_int ctx "fetch_us" ~default:5_000 in
    let* fetch_us = Cell.require_positive "fetch_us" fetch_us in
    let* frames = Cell.get_int ctx "frames" ~default:32 in
    let* frames = Cell.require_positive "frames" frames in
    let* refs_per_job =
      Cell.get_int ctx "refs_per_job" ~default:(if ctx.quick then 300 else 2_000)
    in
    let* refs_per_job = Cell.require_positive "refs_per_job" refs_per_job in
    let report =
      C7_multiprog.point ~obs:ctx.obs ~seed:ctx.seed ~refs_per_job ~frames ~fetch_us jobs
    in
    Cell.gauge ctx "cpu_utilization" report.Dsas.Multiprog.cpu_utilization;
    Cell.count ctx "total_faults" report.Dsas.Multiprog.total_faults;
    Cell.count ctx "elapsed_us" report.Dsas.Multiprog.elapsed_us;
    Ok ()
  in
  {
    Cell.id = "multiprog";
    doc = "multiprogrammed utilization run (C7's family)";
    params =
      [
        ("jobs", "degree of multiprogramming (4)");
        ("fetch_us", "page fetch time (5000)");
        ("frames", "shared frame pool (32)");
        ("refs_per_job", "references per job (2000; 300 quick)");
      ];
    run;
  }

(* --- device: X8d's geometry x scheduler x channels grid point -------- *)

let device_cell =
  let run (ctx : Cell.ctx) =
    let* () = Cell.check_known ctx [ "device"; "sched"; "channels" ] in
    let* device =
      Cell.get_enum ctx "device" ~default:"drum" ~values:[ "fixed"; "drum"; "disk" ]
    in
    let* sched =
      Cell.get_enum ctx "sched" ~default:"fifo"
        ~values:[ "fifo"; "satf"; "priority" ]
    in
    let* channels = Cell.get_int ctx "channels" ~default:1 in
    let* channels = Cell.require_positive "channels" channels in
    let r =
      X8_devices.run_multiprog ~quick:ctx.quick ~seed:ctx.seed ~device ~sched
        ~channels ()
    in
    Cell.gauge ctx "cpu_utilization" r.X8_devices.cpu_utilization;
    Cell.gauge ctx "mean_latency_us" r.X8_devices.mean_latency_us;
    Cell.gauge ctx "mean_depth" r.X8_devices.mean_depth;
    Cell.count ctx "max_depth" r.X8_devices.max_depth;
    Cell.count ctx "elapsed_us" r.X8_devices.elapsed_us;
    Ok ()
  in
  {
    Cell.id = "device";
    doc = "timed backing store under multiprogramming (X8d's family)";
    params =
      [
        ("device", "fixed | drum | disk (drum)");
        ("sched", "fifo | satf | priority (fifo)");
        ("channels", "transfer channels (1)");
      ];
    run;
  }

(* --- resilience: X9's fault-rate x controller grid point ------------- *)

let resilience_cell =
  let run (ctx : Cell.ctx) =
    let* () = Cell.check_known ctx [ "error_prob"; "policy"; "refs_per_job" ] in
    let* error_prob = Cell.get_float ctx "error_prob" ~default:0.15 in
    let* policy =
      Cell.get_enum ctx "policy" ~default:"space-time"
        ~values:[ "none"; "space-time" ]
    in
    let* refs_per_job =
      Cell.get_int ctx "refs_per_job" ~default:(if ctx.quick then 250 else 1_200)
    in
    let* refs_per_job = Cell.require_positive "refs_per_job" refs_per_job in
    if error_prob < 0. || error_prob > 1. then
      Error "parameter \"error_prob\" must be in [0, 1]"
    else begin
      let r =
        X9_resilience.one ~seed:ctx.seed ~obs:ctx.obs ~refs_per_job ~error_prob
          ~policy ()
      in
      Cell.gauge ctx "cpu_utilization" r.X9_resilience.cpu_utilization;
      Cell.count ctx "total_faults" r.X9_resilience.total_faults;
      Cell.count ctx "restarts" r.X9_resilience.restarts;
      Cell.count ctx "jobs_failed" r.X9_resilience.jobs_failed;
      Cell.count ctx "sheds" r.X9_resilience.sheds;
      Cell.count ctx "admits" r.X9_resilience.admits;
      Cell.count ctx "injected" r.X9_resilience.injected;
      Cell.count ctx "device_failed" r.X9_resilience.failed;
      Cell.count ctx "elapsed_us" r.X9_resilience.elapsed_us;
      Ok ()
    end
  in
  {
    Cell.id = "resilience";
    doc = "faulty drum with Fail escalation and load control (X9's family)";
    params =
      [
        ("error_prob", "transient read-error probability (0.15)");
        ("policy", "none | space-time (space-time)");
        ("refs_per_job", "references per job (1200; 250 quick)");
      ];
    run;
  }

(* --- frag_unit: C1's wasted-fraction comparison, one discipline ------ *)

let frag_unit_cell =
  let run (ctx : Cell.ctx) =
    let* () = Cell.check_known ctx [ "policy"; "steps"; "words" ] in
    let* policy = Cell.get_choice ctx "policy" ~default:"best-fit" ~choices:policies in
    let* steps =
      Cell.get_int ctx "steps" ~default:(if ctx.quick then 2_000 else 20_000)
    in
    let* steps = Cell.require_positive "steps" steps in
    let* words = Cell.get_int ctx "words" ~default:(1 lsl 17) in
    let* words = Cell.require_positive "words" words in
    let o =
      C1_fragmentation.point ~obs:ctx.obs ~words
        ~rng:(Sim.Rng.derive ~override:ctx.seed 31) ~steps policy
    in
    Cell.gauge ctx "frag.external" o.C2_placement.external_frag;
    Cell.gauge ctx "frag.holes" (float_of_int o.C2_placement.holes);
    Cell.count ctx "live_words" o.C2_placement.live_words;
    Cell.count ctx "free_words" o.C2_placement.free_words;
    Cell.count ctx "alloc.failures" o.C2_placement.failures;
    Ok ()
  in
  {
    Cell.id = "frag_unit";
    doc = "variable-unit fragmentation run (C1's family)";
    params =
      [
        ("policy", "placement policy (best-fit)");
        ("steps", "stream events (20000; 2000 quick)");
        ("words", "store size in words (131072)");
      ];
    run;
  }

(* --- fss: the finite-size-scaling grid point (X10's family) ---------- *)

let fss_cell =
  let run (ctx : Cell.ctx) =
    let* () =
      Cell.check_known ctx [ "words"; "policy"; "mean_size"; "occupancy"; "churn" ]
    in
    let* words = Cell.get_int ctx "words" ~default:65_536 in
    let* words = Cell.require_positive "words" words in
    let* policy = Cell.get_choice ctx "policy" ~default:"best-fit" ~choices:policies in
    let* mean_size = Cell.get_float ctx "mean_size" ~default:64. in
    let* occupancy = Cell.get_float ctx "occupancy" ~default:0.5 in
    let* churn = Cell.get_int ctx "churn" ~default:12 in
    let* churn = Cell.require_positive "churn" churn in
    if mean_size < 1. then Error "parameter \"mean_size\" must be >= 1"
    else if occupancy <= 0. || occupancy >= 1. then
      Error "parameter \"occupancy\" must be in (0, 1)"
    else begin
      let r =
        X10_fss.point ~seed:ctx.seed ~mean_size ~occupancy ~churn ~policy ~words ()
      in
      Cell.gauge ctx "frag.external" r.X10_fss.external_frag;
      Cell.gauge ctx "frag.holes" (float_of_int r.X10_fss.holes);
      Cell.gauge ctx "frag.largest_free_share" r.X10_fss.largest_free_share;
      Cell.gauge ctx "alloc.mean_search" r.X10_fss.mean_search;
      Cell.count ctx "live_words" r.X10_fss.live_words;
      Ok ()
    end
  in
  {
    Cell.id = "fss";
    doc = "finite-size-scaling point (X10's family): fixed mix, store size swept";
    params =
      [
        ("words", "store size in words (65536)");
        ("policy", "placement policy (best-fit)");
        ("mean_size", "geometric mean object size (64)");
        ("occupancy", "target live fraction of the store (0.5)");
        ("churn", "stream events per live object (12)");
      ];
    run;
  }

(* --- par_alloc: X11's sharded lock-free fixed-size engine ------------ *)

let par_alloc_cell =
  let run (ctx : Cell.ctx) =
    let* () =
      Cell.check_known ctx
        [ "shards"; "ops_per_shard"; "slots_per_shard"; "slot_words"; "domains" ]
    in
    let* shards = Cell.get_int ctx "shards" ~default:4 in
    let* shards = Cell.require_positive "shards" shards in
    let* ops =
      Cell.get_int ctx "ops_per_shard"
        ~default:(if ctx.quick then 4_000 else 20_000)
    in
    let* ops = Cell.require_positive "ops_per_shard" ops in
    let* slots = Cell.get_int ctx "slots_per_shard" ~default:512 in
    let* slots = Cell.require_positive "slots_per_shard" slots in
    let* slot_words = Cell.get_int ctx "slot_words" ~default:16 in
    let* slot_words = Cell.require_positive "slot_words" slot_words in
    let* domains = Cell.get_int ctx "domains" ~default:1 in
    let* domains = Cell.require_positive "domains" domains in
    let cfg =
      Parallel.Sharded.alloc_config ~shards ~ops_per_shard:ops
        ~slots_per_shard:slots ~slot_words ~seed:ctx.seed ()
    in
    let r = Parallel.Sharded.run_alloc ~obs:ctx.obs ~domains cfg in
    let sum f =
      Array.fold_left
        (fun acc (s : Parallel.Sharded.shard_alloc) -> acc + f s)
        0 r.Parallel.Sharded.ar_shards
    in
    let elapsed =
      Array.fold_left
        (fun acc (s : Parallel.Sharded.shard_alloc) -> max acc s.sa_elapsed_us)
        0 r.Parallel.Sharded.ar_shards
    in
    Cell.count ctx "allocs" (sum (fun s -> s.sa_allocs));
    Cell.count ctx "frees" (sum (fun s -> s.sa_frees));
    Cell.count ctx "denied" (sum (fun s -> s.sa_failures));
    Cell.count ctx "refills" (sum (fun s -> s.sa_refills));
    Cell.count ctx "flushes" (sum (fun s -> s.sa_flushes));
    Cell.count ctx "live" (sum (fun s -> s.sa_live));
    Cell.count ctx "elapsed_us" elapsed;
    Ok ()
  in
  {
    Cell.id = "par_alloc";
    doc =
      "sharded lock-free fixed-size allocation (X11's family); results \
       independent of domains";
    params =
      [
        ("shards", "workload partitions (4)");
        ("ops_per_shard", "alloc/free ops per shard (20000; 4000 quick)");
        ("slots_per_shard", "fixed-size blocks per shard arena (512)");
        ("slot_words", "words per block (16)");
        ("domains", "execution width; never changes results (1)");
      ];
    run;
  }

(* --- par_paging: X11's sharded demand-paging engines ----------------- *)

let par_paging_cell =
  let run (ctx : Cell.ctx) =
    let* () =
      Cell.check_known ctx
        [ "shards"; "refs_per_shard"; "frames"; "pages"; "policy"; "domains" ]
    in
    let* shards = Cell.get_int ctx "shards" ~default:4 in
    let* shards = Cell.require_positive "shards" shards in
    let* refs =
      Cell.get_int ctx "refs_per_shard"
        ~default:(if ctx.quick then 2_000 else 8_000)
    in
    let* refs = Cell.require_positive "refs_per_shard" refs in
    let* frames = Cell.get_int ctx "frames" ~default:12 in
    let* frames = Cell.require_positive "frames" frames in
    let* pages = Cell.get_int ctx "pages" ~default:24 in
    let* pages = Cell.require_positive "pages" pages in
    let* spec = Cell.get_choice ctx "policy" ~default:"lru" ~choices:(specs ~frames) in
    let* domains = Cell.get_int ctx "domains" ~default:1 in
    let* domains = Cell.require_positive "domains" domains in
    if pages < frames then Error "parameter \"pages\" must be >= \"frames\""
    else begin
      let cfg =
        Parallel.Sharded.paging_config ~shards ~refs_per_shard:refs
          ~frames_per_shard:frames ~pages_per_shard:pages ~policy:spec
          ~seed:ctx.seed ()
      in
      let r = Parallel.Sharded.run_paging ~obs:ctx.obs ~domains cfg in
      let sum f =
        Array.fold_left
          (fun acc (s : Parallel.Sharded.shard_paging) -> acc + f s)
          0 r.Parallel.Sharded.pr_shards
      in
      let elapsed =
        Array.fold_left
          (fun acc (s : Parallel.Sharded.shard_paging) -> max acc s.sp_elapsed_us)
          0 r.Parallel.Sharded.pr_shards
      in
      Cell.count ctx "refs" (sum (fun s -> s.sp_refs));
      Cell.count ctx "faults" (sum (fun s -> s.sp_faults));
      Cell.count ctx "writebacks" (sum (fun s -> s.sp_writebacks));
      Cell.count ctx "elapsed_us" elapsed;
      Ok ()
    end
  in
  {
    Cell.id = "par_paging";
    doc =
      "sharded demand paging, one engine per shard (X11's family); results \
       independent of domains";
    params =
      [
        ("shards", "workload partitions (4)");
        ("refs_per_shard", "references per shard (8000; 2000 quick)");
        ("frames", "core frames per shard (12)");
        ("pages", "name-space pages per shard (24)");
        ("policy", String.concat " | " spec_names ^ " (lru)");
        ("domains", "execution width; never changes results (1)");
      ];
    run;
  }

(* --- par_chaos: supervised sharded engines under drawn kills --------- *)

let par_chaos_cell =
  let run (ctx : Cell.ctx) =
    let* () = Cell.check_known ctx [ "fault_rate"; "domains"; "shards"; "steps" ] in
    let* fault_rate = Cell.get_float ctx "fault_rate" ~default:0.5 in
    let* domains = Cell.get_int ctx "domains" ~default:1 in
    let* domains = Cell.require_positive "domains" domains in
    let* shards = Cell.get_int ctx "shards" ~default:4 in
    let* shards = Cell.require_positive "shards" shards in
    let* steps =
      Cell.get_int ctx "steps" ~default:(if ctx.quick then 150 else 600)
    in
    let* steps = Cell.require_positive "steps" steps in
    if fault_rate < 0. || fault_rate > 1. then
      Error "parameter \"fault_rate\" must be in [0, 1]"
    else begin
      (* Up to two kills per shard, each fired with [fault_rate] — two
         stays inside the restart budget, so escalation never
         muddies the grid.  The schedule is a pure function of the
         cell's seed. *)
      let rng = Sim.Rng.derive ~override:ctx.seed 0xC4A05 in
      let kills =
        List.concat
          (List.init shards (fun shard ->
               List.filter_map Fun.id
                 (List.init 2 (fun attempt ->
                      let fires = Sim.Rng.float rng 1. < fault_rate in
                      let progress = Sim.Rng.int_in rng 1 steps in
                      let stall = Sim.Rng.int rng 5 = 0 in
                      if fires then
                        Some
                          {
                            Parallel.Supervisor.k_shard = shard;
                            k_attempt = attempt;
                            k_progress = progress;
                            k_stall = stall;
                          }
                      else None))))
      in
      let subjects =
        [
          ( "alloc",
            (Par_chaos.recover_alloc ~domains ~kills ~checkpoint_every:32
               (Parallel.Sharded.alloc_config ~shards ~ops_per_shard:steps
                  ~slots_per_shard:64 ~slot_words:8 ~seed:ctx.seed ()))
              .subject );
          ( "paging",
            (Par_chaos.recover_paging ~domains ~kills ~checkpoint_every:32
               (Parallel.Sharded.paging_config ~shards ~refs_per_shard:steps
                  ~frames_per_shard:6 ~pages_per_shard:12 ~seed:ctx.seed ()))
              .subject );
        ]
      in
      let recovered = List.filter_map (fun (_, s) -> Result.to_option s) subjects in
      let sum f =
        List.fold_left (fun acc (r : Par_chaos.recovered) -> acc + f r) 0 recovered
      in
      let diverged =
        List.filter_map
          (fun (name, s) ->
            match s with
            | Ok (r : Par_chaos.recovered) when not r.identical -> Some name
            | Ok _ | Error _ -> None)
          subjects
      in
      Cell.count ctx "kills" (List.length kills);
      Cell.count ctx "crashes" (sum (fun r -> r.crashes));
      Cell.count ctx "restarts" (sum (fun r -> r.restarts));
      Cell.count ctx "checkpoints" (sum (fun r -> r.checkpoints));
      Cell.count ctx "escalated" (List.length subjects - List.length recovered);
      Cell.count ctx "diverged" (List.length diverged);
      if diverged <> [] then
        Error
          (Printf.sprintf
             "recovered %s trace diverged from the fault-free reference"
             (String.concat "+" diverged))
      else Ok ()
    end
  in
  {
    Cell.id = "par_chaos";
    doc =
      "supervised sharded engines under a seeded kill schedule (X11's \
       family): recovery must reproduce the fault-free trace";
    params =
      [
        ("fault_rate", "probability of each potential shard kill (0.5)");
        ("domains", "execution width; never changes results (1)");
        ("shards", "workload partitions (4)");
        ("steps", "workload steps per shard (600; 150 quick)");
      ];
    run;
  }

let all =
  [
    paging_cell;
    placement_cell;
    replacement_cell;
    multiprog_cell;
    device_cell;
    resilience_cell;
    frag_unit_cell;
    fss_cell;
    par_alloc_cell;
    par_paging_cell;
    par_chaos_cell;
  ]

let find id = List.find_opt (fun (c : Cell.spec) -> c.id = id) all

let ids = List.map (fun (c : Cell.spec) -> c.id) all
