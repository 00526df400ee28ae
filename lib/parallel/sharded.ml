(* Shard bodies are pure functions of (config, shard index): private
   clock, derived rng, private engine, private event buffer.  The only
   cross-domain traffic is Pool.map_shards handing back the per-shard
   results; the caller's sink is touched exclusively on the caller's
   domain, after the join, via the deterministic Obs.Merge stage.

   One runner serves all four entry points.  An engine is a private
   [engine] record whose start and resume build a [shard] (step,
   checkpoint payload, report); [shard_run] drives it through the one
   per-shard loop against a [tick] callback, called once per workload
   step with the shard's clock and a lazy snapshot.  Plain runs pass a no-op tick and no
   checkpoint; supervised runs wire tick to Supervisor.step, which is
   what turns the same loop into a crash-restartable one.  A
   zero-fault supervised run is byte-identical to the plain run by
   construction. *)

(* Per-site rng defaults: distinct streams per shard under one master
   seed (see Sim.Rng.derive).  The multipliers keep alloc and paging
   shards on unrelated streams. *)
let alloc_rng_site shard = 0xA110C + (shard * 7919)
let paging_rng_site shard = 0x9A61B + (shard * 104729)

(* A shard buffers its (already relabelled) events locally; reversed
   into an array at the end so streams arrive in emission order.
   [init] pre-seeds the buffer with a checkpoint's event prefix. *)
let buffer_sink ?(init = [||]) () =
  let buf = ref (List.rev (Array.to_list init)) in
  let sink = Obs.Sink.collect (fun ev -> buf := ev :: !buf) in
  let contents () =
    let arr = Array.of_list !buf in
    let n = Array.length arr in
    Array.init n (fun i -> arr.(n - 1 - i))
  in
  (sink, contents)

(* {2 The shard loop and the runner} *)

(* A started shard: the clock and rng a checkpoint records, workload
   step [i] (0-based), the engine's checkpoint payload, and its
   end-of-run report given the number of events it buffered. *)
type 'r shard = {
  clock : Sim.Clock.t;
  rng : Sim.Rng.t;
  step : int -> unit;
  payload : unit -> int array;
  report : events:int -> 'r;
}

(* What an engine supplies.  [start] builds a fresh shard; [resume]
   rebuilds one from a checkpoint — the engine's own recovery code —
   and raises Checkpoint.Inconsistent when it cannot trust it.  Both
   emit into [obs], which is null when the run is untraced.  [collate]
   builds the public report from the per-shard ones. *)
type ('r, 'report) engine = {
  shards : int;
  steps : int;  (* workload steps per shard *)
  start : shard:int -> obs:Obs.Sink.t -> 'r shard;
  resume : shard:int -> obs:Obs.Sink.t -> Checkpoint.state -> 'r shard;
  collate : 'r array -> events:int -> telemetry:Obs.Telemetry.snapshot array -> 'report;
}

let shard_run engine ~traced ~tick ~resume shard =
  let start, prefix =
    match resume with
    | None -> (0, [||])
    | Some (st : Checkpoint.state) ->
      if st.ck_progress > engine.steps then
        raise
          (Checkpoint.Inconsistent
             (Printf.sprintf "shard %d checkpoint progress %d beyond %d steps" shard
                st.ck_progress engine.steps));
      (st.ck_progress, st.ck_events)
  in
  let sink, contents = buffer_sink ~init:prefix () in
  let obs = if traced then sink else Obs.Sink.null in
  let s =
    match resume with
    | None -> engine.start ~shard ~obs
    | Some st -> engine.resume ~shard ~obs st
  in
  for i = start to engine.steps - 1 do
    s.step i;
    tick ~clock_us:(Sim.Clock.now s.clock) ~snapshot:(fun () ->
        { Supervisor.sn_clock_us = Sim.Clock.now s.clock;
          sn_rng = Sim.Rng.state s.rng;
          sn_payload = s.payload ();
          sn_events = contents () })
  done;
  let events = contents () in
  (s.report ~events:(Array.length events), events)

let noop_tick ~clock_us:_ ~snapshot:_ = ()

(* The supervisor's inputs; a run without them executes each body
   once. *)
type supervised = {
  kills : Supervisor.kill list;
  checkpoint_every : int;
  checkpoint_dir : string option;
}

(* The first [Error] by shard index, or every value in shard order. *)
let all_ok results =
  Array.fold_right
    (fun r acc ->
      match (r, acc) with
      | Error f, _ -> Error f
      | Ok v, Ok vs -> Ok (v :: vs)
      | Ok _, (Error _ as e) -> e)
    results (Ok [])

(* Evaluate watchdog rules over each shard's snapshot stream; the
   first escalating fire (by shard index, then snapshot order) becomes
   the run's failure, mirroring the supervisor's own escalation
   order. *)
let watchdog rules telemetry_streams =
  let escalation shard (sn : Obs.Telemetry.snapshot) = function
    | Obs.Watch.Fire { rule; _ } when rule.Obs.Watch.escalate ->
      Some
        (Resilience.Failure.Watchdog_tripped
           { rule = rule.Obs.Watch.name; shard; at_us = sn.sn_t_us })
    | Obs.Watch.Fire _ | Obs.Watch.Clear _ -> None
  in
  let first shard snaps =
    let w = Obs.Watch.create rules in
    Array.find_map
      (fun sn -> List.find_map (escalation shard sn) (Obs.Watch.feed w sn))
      snaps
  in
  if rules = [] then Ok ()
  else
    match Seq.find_map Fun.id (Seq.mapi first (Array.to_seq telemetry_streams)) with
    | Some f -> Error f
    | None -> Ok ()

(* The one runner: argument checks, the shard bodies on the pool (under
   the supervisor when [supervised] is given), then on the caller's
   domain the per-shard telemetry, the watch rules and both merges.
   Telemetry is a pure function of each recovered event stream
   (Obs.Telemetry.of_events), so it is bit-identical across widths and
   across crash recovery.  Escalation, by the supervisor or a watch
   rule, emits nothing. *)
let run ~fn ?supervised ?(watch = []) ?(obs = Obs.Sink.null)
    ?(supervision = Obs.Sink.null) ~telemetry ~domains engine =
  if domains < 1 then invalid_arg (fn ^ ": domains < 1");
  (match telemetry with
   | Some e when e < 1 -> invalid_arg (fn ^ ": telemetry cadence < 1")
   | _ -> ());
  if watch <> [] && telemetry = None then
    invalid_arg (fn ^ ": watch rules need a telemetry cadence");
  (* Created here, once, rather than racing in every shard's store. *)
  (match supervised with
   | Some { checkpoint_dir = Some d; _ } when not (Sys.file_exists d) ->
     (try Sys.mkdir d 0o755 with Sys_error _ -> ())
   | _ -> ());
  let traced = Obs.Sink.is_active obs || telemetry <> None in
  let per =
    Pool.map_shards ~domains ~shards:engine.shards (fun shard ->
        match supervised with
        | None -> Ok (shard_run engine ~traced ~tick:noop_tick ~resume:None shard, None)
        | Some sv ->
          Supervisor.supervise ~policy:(Supervisor.policy ())
            ~inject:
              (if sv.kills = [] then Supervisor.no_inject
               else Supervisor.inject_of_kills sv.kills)
            ~checkpoint_every:sv.checkpoint_every
            ~store:(Checkpoint.store ?dir:sv.checkpoint_dir ~shard ())
            ~shard
            ~run:(fun ~resume ctl ->
              shard_run engine ~traced ~resume shard ~tick:(fun ~clock_us ~snapshot ->
                  Supervisor.step ctl ~clock_us ~snapshot))
          |> Result.map (fun (v, outcome) -> (v, Some outcome)))
  in
  let ( let* ) = Result.bind in
  let* per = all_ok per in
  let reports = Array.of_list (List.map (fun ((r, _), _) -> r) per) in
  let streams = Array.of_list (List.map (fun ((_, ev), _) -> ev) per) in
  let outcomes = Array.of_list (List.filter_map snd per) in
  let tele =
    Array.mapi
      (fun shard ev ->
        match telemetry with
        | Some every_us -> Obs.Telemetry.of_events ~shard ~every_us ev
        | None -> [||])
      streams
  in
  let* () = watchdog watch tele in
  let events = Obs.Merge.emit ~into:obs streams in
  let (_ : int) =
    Obs.Merge.emit ~into:supervision (Array.map (fun o -> o.Supervisor.o_events) outcomes)
  in
  Ok (engine.collate reports ~events ~telemetry:(Obs.Telemetry.merge tele), outcomes)

(* {2 Fixed-size allocation} *)

type alloc_config = {
  a_shards : int;
  a_ops_per_shard : int;
  a_slots_per_shard : int;
  a_slot_words : int;
  a_op_us : int;
  a_seed : int;
}

let alloc_config ?(shards = 4) ?(ops_per_shard = 20_000) ?(slots_per_shard = 512)
    ?(slot_words = 16) ?(op_us = 5) ~seed () =
  if shards < 1 then invalid_arg "Sharded.alloc_config: shards < 1";
  if ops_per_shard < 0 then invalid_arg "Sharded.alloc_config: ops_per_shard < 0";
  { a_shards = shards; a_ops_per_shard = ops_per_shard;
    a_slots_per_shard = slots_per_shard; a_slot_words = slot_words;
    a_op_us = op_us; a_seed = seed }

type shard_alloc = {
  sa_shard : int;
  sa_allocs : int;
  sa_frees : int;
  sa_failures : int;
  sa_refills : int;
  sa_flushes : int;
  sa_live : int;
  sa_elapsed_us : int;
  sa_events : int;
}

type alloc_report = {
  ar_shards : shard_alloc array;
  ar_events : int;
  ar_telemetry : Obs.Telemetry.snapshot array;
}

(* Rebuild the arena and live set from a checkpoint payload
   [live_n; live slots...; Fixed_alloc encoding...], or refuse it. *)
let alloc_restore cfg shard (st : Checkpoint.state) =
  let fail fmt = Printf.ksprintf (fun m -> raise (Checkpoint.Inconsistent m)) fmt in
  let p = st.ck_payload in
  if Array.length p < 1 then fail "shard %d checkpoint payload empty" shard;
  let live_n = p.(0) in
  if live_n < 0 || live_n > cfg.a_slots_per_shard
     || Array.length p < 1 + live_n
  then fail "shard %d checkpoint live set malformed" shard;
  let live = Array.make (max 1 cfg.a_slots_per_shard) 0 in
  Array.blit p 1 live 0 live_n;
  let arena_words = cfg.a_slots_per_shard * cfg.a_slot_words in
  let enc = Array.sub p (1 + live_n) (Array.length p - 1 - live_n) in
  match
    Fixed_alloc.restore ~base:(shard * arena_words) ~slots:cfg.a_slots_per_shard
      ~slot_words:cfg.a_slot_words enc
  with
  | None -> fail "shard %d checkpoint arena malformed" shard
  | Some (_, cache) -> (cache, live, live_n)

(* One shard of the mixed alloc/free workload.  The arena base puts the
   shard's addresses in a globally disjoint range, so Alloc/Free events
   need no relabelling.  The stream holds roughly half the arena live:
   below target it biases toward allocation, at the target it frees, in
   between it flips the shard's coin.  A resumed shard restores its
   arena directly from the checkpoint encoding. *)
let alloc_engine cfg =
  let arena_words = cfg.a_slots_per_shard * cfg.a_slot_words in
  let target = max 1 (cfg.a_slots_per_shard / 2) in
  let size = cfg.a_slot_words in
  let shard_of ~shard ~obs ~clock ~rng (cache, live, live_n0) =
    let traced = Obs.Sink.is_active obs in
    let live_n = ref live_n0 in
    let step _ =
      Sim.Clock.advance clock cfg.a_op_us;
      let do_alloc =
        if !live_n = 0 then true
        else if !live_n >= target then false
        else Sim.Rng.bool rng
      in
      if do_alloc then begin
        match Fixed_alloc.alloc cache with
        | Some addr ->
          live.(!live_n) <- addr;
          incr live_n;
          if traced then
            Obs.Sink.emit obs
              (Obs.Event.make ~t_us:(Sim.Clock.now clock)
                 (Obs.Event.Alloc { addr; size }))
        | None -> ()
      end else begin
        let i = Sim.Rng.int rng !live_n in
        let addr = live.(i) in
        live.(i) <- live.(!live_n - 1);
        decr live_n;
        Fixed_alloc.free cache addr;
        if traced then
          Obs.Sink.emit obs
            (Obs.Event.make ~t_us:(Sim.Clock.now clock)
               (Obs.Event.Free { addr; size }))
      end
    in
    { clock; rng; step;
      payload =
        (fun () ->
          Array.concat
            [ [| !live_n |]; Array.sub live 0 !live_n; Fixed_alloc.snapshot cache ]);
      report =
        (fun ~events ->
          let st = Fixed_alloc.stats cache in
          { sa_shard = shard;
            sa_allocs = st.Fixed_alloc.allocs;
            sa_frees = st.Fixed_alloc.frees;
            sa_failures = st.Fixed_alloc.failures;
            sa_refills = st.Fixed_alloc.refills;
            sa_flushes = st.Fixed_alloc.flushes;
            sa_live = !live_n;
            sa_elapsed_us = Sim.Clock.now clock;
            sa_events = events }) }
  in
  { shards = cfg.a_shards;
    steps = cfg.a_ops_per_shard;
    start =
      (fun ~shard ~obs ->
        let rng = Sim.Rng.derive ~override:cfg.a_seed (alloc_rng_site shard) in
        let fa =
          Fixed_alloc.create ~base:(shard * arena_words)
            ~slots:cfg.a_slots_per_shard ~slot_words:cfg.a_slot_words ()
        in
        shard_of ~shard ~obs ~clock:(Sim.Clock.create ()) ~rng
          (Fixed_alloc.cache fa, Array.make (max 1 cfg.a_slots_per_shard) 0, 0));
    resume =
      (fun ~shard ~obs st ->
        let restored = alloc_restore cfg shard st in
        let clock = Sim.Clock.create () in
        Sim.Clock.advance clock st.Checkpoint.ck_clock_us;
        shard_of ~shard ~obs ~clock ~rng:(Sim.Rng.of_state st.Checkpoint.ck_rng)
          restored);
    collate =
      (fun ar_shards ~events ~telemetry ->
        { ar_shards; ar_events = events; ar_telemetry = telemetry }) }

(* {2 Demand paging} *)

type paging_config = {
  p_shards : int;
  p_refs_per_shard : int;
  p_frames_per_shard : int;
  p_pages_per_shard : int;
  p_page_size : int;
  p_policy : Paging.Spec.t;
  p_compute_us_per_ref : int;
  p_seed : int;
}

let paging_config ?(shards = 4) ?(refs_per_shard = 8_000) ?(frames_per_shard = 12)
    ?(pages_per_shard = 24) ?(page_size = 256) ?(policy = Paging.Spec.Lru)
    ?(compute_us_per_ref = 50) ~seed () =
  if shards < 1 then invalid_arg "Sharded.paging_config: shards < 1";
  if frames_per_shard < 1 then
    invalid_arg "Sharded.paging_config: frames_per_shard < 1";
  if pages_per_shard < frames_per_shard then
    invalid_arg "Sharded.paging_config: pages_per_shard < frames_per_shard";
  { p_shards = shards; p_refs_per_shard = refs_per_shard;
    p_frames_per_shard = frames_per_shard; p_pages_per_shard = pages_per_shard;
    p_page_size = page_size; p_policy = policy;
    p_compute_us_per_ref = compute_us_per_ref; p_seed = seed }

type shard_paging = {
  sp_shard : int;
  sp_refs : int;
  sp_faults : int;
  sp_writebacks : int;
  sp_elapsed_us : int;
  sp_events : int;
}

type paging_report = {
  pr_shards : shard_paging array;
  pr_events : int;
  pr_telemetry : Obs.Telemetry.snapshot array;
}

(* Relabel a shard-local event into the shard's global ranges: pages
   shift by the shard's page base, io request ids by a per-shard stride
   wide enough that no two shards' ids collide.  Applied at buffering
   time, on the shard's own domain. *)
let relabel ~page_off ~req_off (ev : Obs.Event.t) =
  let open Obs.Event in
  let kind =
    match ev.kind with
    | Fault { page } -> Fault { page = page + page_off }
    | Cold_fault { page } -> Cold_fault { page = page + page_off }
    | Eviction { page } -> Eviction { page = page + page_off }
    | Writeback { page } -> Writeback { page = page + page_off }
    | Tlb_hit { key } -> Tlb_hit { key = key + page_off }
    | Tlb_miss { key } -> Tlb_miss { key = key + page_off }
    | Io_start { req; page; io } ->
      Io_start { req = req + req_off; page = page + page_off; io }
    | Io_done { req; page; io } ->
      Io_done { req = req + req_off; page = page + page_off; io }
    | Io_retry { req; attempt } -> Io_retry { req = req + req_off; attempt }
    | Io_error { req; page; io; attempts } ->
      Io_error { req = req + req_off; page = page + page_off; io; attempts }
    | other -> other
  in
  { ev with kind }

(* Each engine restarts request ids at 0; a fault costs at most a fetch
   and a writeback request, so 2x the reference count (with slack)
   bounds a shard's id range. *)
let req_stride cfg = (4 * cfg.p_refs_per_shard) + 16

(* The paging engine's state (frame tables, device queues, victim
   policies) has no flat encoding, so a resumed shard {e replays}: it
   rebuilds the engine and re-drives the references before the
   checkpoint with emission suppressed, then verifies the replayed
   clock, RNG stream, event count and fault/writeback digest against
   the checkpoint before emitting the suffix.  Any disagreement means
   the checkpoint cannot be trusted — Inconsistent poisons it. *)
let paging_engine cfg =
  let pages = cfg.p_pages_per_shard in
  let shard_of ~shard ~obs resume =
    let rng = Sim.Rng.derive ~override:cfg.p_seed (paging_rng_site shard) in
    let clock = Sim.Clock.create () in
    let page_off = shard * pages in
    let req_off = shard * req_stride cfg in
    let start =
      match resume with Some st -> st.Checkpoint.ck_progress | None -> 0
    in
    let traced = Obs.Sink.is_active obs in
    let emitting = ref (start = 0) in
    let suppressed = ref 0 in
    let engine_obs =
      if traced then
        Obs.Sink.collect (fun ev ->
            if !emitting then Obs.Sink.emit obs (relabel ~page_off ~req_off ev)
            else incr suppressed)
      else Obs.Sink.null
    in
    (* Phase-structured local reference string, then word addresses with
       a random offset inside each page. *)
    let page_trace =
      Workload.Trace.working_set_phases rng ~length:cfg.p_refs_per_shard
        ~extent:pages
        ~set_size:(max 1 (cfg.p_frames_per_shard * 2 / 3))
        ~phase_length:(max 1 (cfg.p_refs_per_shard / 8))
        ~locality:0.95
    in
    let word_trace =
      Array.map (fun p -> (p * cfg.p_page_size) + Sim.Rng.int rng cfg.p_page_size)
        page_trace
    in
    let engine_spec =
      { Paging.Spec.e_page_size = cfg.p_page_size;
        e_frames = cfg.p_frames_per_shard;
        e_pages = pages;
        e_device = Memstore.Device.drum;
        e_policy = cfg.p_policy;
        e_tlb_slots = None;
        e_compute_us_per_ref = cfg.p_compute_us_per_ref }
    in
    let engine =
      Paging.Spec.build ~obs:engine_obs ~core_name:(Printf.sprintf "core%d" shard)
        ~clock ~rng ~trace:page_trace engine_spec
    in
    (* Quarter of the references are writes, so evictions exercise the
       write-back path; the page reference string is unchanged. *)
    let drive i =
      let addr = word_trace.(i) in
      if i land 3 = 0 then Paging.Demand.write engine addr (Int64.of_int addr)
      else
        let (_ : int64) = Paging.Demand.read engine addr in
        ()
    in
    (match resume with
     | None -> ()
     | Some st ->
       for i = 0 to start - 1 do
         drive i
       done;
       let fail fmt =
         Printf.ksprintf (fun m -> raise (Checkpoint.Inconsistent m)) fmt
       in
       if Sim.Clock.now clock <> st.Checkpoint.ck_clock_us then
         fail "shard %d replay clock %d disagrees with checkpoint %d" shard
           (Sim.Clock.now clock) st.Checkpoint.ck_clock_us;
       if Sim.Rng.state rng <> st.Checkpoint.ck_rng then
         fail "shard %d replay rng stream disagrees with checkpoint" shard;
       if traced && !suppressed <> Array.length st.Checkpoint.ck_events then
         fail "shard %d replay emitted %d events where checkpoint recorded %d"
           shard !suppressed
           (Array.length st.Checkpoint.ck_events);
       (match st.Checkpoint.ck_payload with
        | [| faults; writebacks |] ->
          if Paging.Demand.faults engine <> faults
             || Paging.Demand.writebacks engine <> writebacks
          then
            fail "shard %d replay digest %d/%d disagrees with checkpoint %d/%d"
              shard (Paging.Demand.faults engine)
              (Paging.Demand.writebacks engine) faults writebacks
        | _ -> fail "shard %d checkpoint digest malformed" shard);
       emitting := true);
    { clock; rng;
      step = drive;
      payload =
        (fun () -> [| Paging.Demand.faults engine; Paging.Demand.writebacks engine |]);
      report =
        (fun ~events ->
          { sp_shard = shard;
            sp_refs = Paging.Demand.refs engine;
            sp_faults = Paging.Demand.faults engine;
            sp_writebacks = Paging.Demand.writebacks engine;
            sp_elapsed_us = Sim.Clock.now clock;
            sp_events = events }) }
  in
  { shards = cfg.p_shards;
    steps = cfg.p_refs_per_shard;
    start = (fun ~shard ~obs -> shard_of ~shard ~obs None);
    resume = (fun ~shard ~obs st -> shard_of ~shard ~obs (Some st));
    collate =
      (fun pr_shards ~events ~telemetry ->
        { pr_shards; pr_events = events; pr_telemetry = telemetry }) }

(* {2 Entry points} *)

let plain fn engine ?obs ?telemetry ~domains cfg =
  match run ~fn ?obs ~telemetry ~domains (engine cfg) with
  | Ok (report, _) -> report
  | Error _ -> assert false (* no supervisor, no watch rules: nothing escalates *)

let supervised fn engine ?obs ?supervision ?telemetry ?watch ?(kills = [])
    ?(checkpoint_every = 512) ?checkpoint_dir ~domains cfg =
  run ~fn ~supervised:{ kills; checkpoint_every; checkpoint_dir } ?obs ?supervision
    ?watch ~telemetry ~domains (engine cfg)

let run_alloc = plain "Sharded.run_alloc" alloc_engine
let run_paging = plain "Sharded.run_paging" paging_engine
let run_alloc_supervised = supervised "Sharded.run_alloc_supervised" alloc_engine
let run_paging_supervised = supervised "Sharded.run_paging_supervised" paging_engine
