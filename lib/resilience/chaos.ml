type scenario = {
  name : string;
  run :
    seed:int ->
    fault:Device.Fault.config ->
    obs:Obs.Sink.t ->
    (string * int) list;
}

type run_result = {
  scenario : string;
  index : int;
  fault : Device.Fault.config;
  counters : (string * int) list;
  events : int;
  check : Obs.Check.report;
}

type summary = {
  runs : run_result list;
  total_events : int;
  violations : int;
  totals : (string * int) list;  (* counters summed across runs, first-seen order *)
}

(* One randomized-but-reproducible fault configuration.  Escalation is
   always [Fail]: chaos exists to exercise the recovery paths, and
   [Degrade] never surfaces a failure.  Every draw comes from the
   caller's rng, so a fixed chaos seed fixes the whole schedule. *)
let schedule rng =
  let read_error_prob = 0.05 +. Sim.Rng.float rng 0.4 in
  let write_error_prob = if Sim.Rng.bool rng then Sim.Rng.float rng 0.25 else 0. in
  let permanent_prob = Sim.Rng.float rng 0.3 in
  let max_retries = Sim.Rng.int rng 4 in
  Device.Fault.config
    ~seed:(Sim.Rng.int rng 0x3FFFFFFF)
    ~max_retries ~write_error_prob ~permanent_prob ~on_exhausted:Device.Fault.Fail
    ~read_error_prob ()

let add_counters totals counters =
  List.fold_left
    (fun totals (k, v) ->
      match List.assoc_opt k totals with
      | Some _ -> List.map (fun (k', v') -> if k' = k then (k', v' + v) else (k', v')) totals
      | None -> totals @ [ (k, v) ])
    totals counters

let run ?(trace = Obs.Sink.null) ~scenarios ~runs ~seed () =
  assert (runs >= 1 && scenarios <> []);
  let rng = Sim.Rng.create seed in
  let n = List.length scenarios in
  let results = ref [] in
  let offset = ref 0 in
  for index = 0 to runs - 1 do
    let scenario = List.nth scenarios (index mod n) in
    let fault = schedule rng in
    let run_seed = Sim.Rng.int rng 0x3FFFFFFF in
    let buffer = ref [] in
    let collect = Obs.Sink.collect (fun ev -> buffer := ev :: !buffer) in
    (* One segment per run splices everything — the collected stream
       and the optional JSONL trace — into one monotone multi-run
       stream that Obs.Check can scope. *)
    let obs =
      Obs.Sink.segment ~seed:run_seed
        ~config:("chaos scenario=" ^ scenario.name)
        ~run:index ~offset:!offset
        (Obs.Sink.tee collect trace)
    in
    let counters = scenario.run ~seed:run_seed ~fault ~obs in
    let events = List.rev !buffer in
    List.iter
      (fun (ev : Obs.Event.t) -> if ev.t_us > !offset then offset := ev.t_us)
    events;
    incr offset;
    let check = Obs.Check.check_events events in
    results :=
      {
        scenario = scenario.name;
        index;
        fault;
        counters;
        events = List.length events;
        check;
      }
      :: !results
  done;
  let runs = List.rev !results in
  let violation_count (r : Obs.Check.report) =
    List.fold_left (fun acc (_, n) -> acc + n) 0 r.counts
  in
  {
    runs;
    total_events = List.fold_left (fun acc r -> acc + r.events) 0 runs;
    violations = List.fold_left (fun acc r -> acc + violation_count r.check) 0 runs;
    totals = List.fold_left (fun acc r -> add_counters acc r.counters) [] runs;
  }

let ok s = s.violations = 0

let counter s name = match List.assoc_opt name s.totals with Some n -> n | None -> 0

(* {2 Multicore chaos} *)

(* Pure data: this module sits below lib/parallel, so the one
   shard-kill record lives here and Parallel.Supervisor re-exports it
   as its [kill]. *)
type shard_kill = {
  k_shard : int;
  k_attempt : int;
  k_progress : int;
  k_stall : bool;
}

(* 0-2 kills per shard keeps every schedule inside the default restart
   budget (3): chaos exercises recovery, escalation is a separate,
   deliberate test.  Progresses are sorted so attempt n's kill point
   never precedes attempt n-1's — later attempts resume at or before
   the earlier kill point, so each kill has a chance to fire.  A fifth
   of the kills stall instead of crashing. *)
let shard_schedule rng ~shards ~steps =
  assert (shards >= 1 && steps >= 1);
  List.concat
    (List.init shards (fun s ->
         let n = Sim.Rng.int rng 3 in
         let points =
           List.sort compare
             (List.init n (fun _ -> Sim.Rng.int_in rng 1 steps))
         in
         List.mapi
           (fun a p ->
             { k_shard = s; k_attempt = a; k_progress = p;
               k_stall = Sim.Rng.int rng 5 = 0 })
           points))

type shard_scenario = {
  sh_name : string;
  sh_run :
    seed:int ->
    kills:shard_kill list ->
    engine:Obs.Sink.t ->
    supervision:Obs.Sink.t ->
    (string * int) list;
}

type sharded_result = {
  sr_scenario : string;
  sr_index : int;
  sr_kills : shard_kill list;
  sr_counters : (string * int) list;
  sr_engine_events : int;
  sr_supervision_events : int;
  sr_check : Obs.Check.report;
}

type sharded_summary = {
  sr_runs : sharded_result list;
  sr_total_events : int;
  sr_violations : int;
  sr_totals : (string * int) list;
}

(* A sharded round produces two vocabularies — the engine trace and
   the supervision trace — which must live in separate run segments or
   the vocabulary invariant (rightly) fires.  The scenario writes into
   plain buffering sinks; the harness splices the buffers into the
   JSONL trace afterwards as runs 2i (engine) and 2i+1 (supervision),
   when it knows the engine segment's time extent. *)
let run_sharded ?(trace = Obs.Sink.null) ?kills ~scenarios ~shards
    ~steps ~runs ~seed () =
  assert (runs >= 1 && scenarios <> []);
  let rng = Sim.Rng.create seed in
  let n = List.length scenarios in
  let results = ref [] in
  let offset = ref 0 in
  (* The buffered events carry raw engine stamps, shifted by the
     segment; the next segment starts one past this one's last stamp. *)
  let emit_segment ~seed ~config ~run events =
    let seg = Obs.Sink.segment ~seed ~config ~run ~offset:!offset trace in
    List.iter (Obs.Sink.emit seg) events;
    offset :=
      !offset + List.fold_left (fun acc (ev : Obs.Event.t) -> max acc ev.t_us) 0 events + 1
  in
  for index = 0 to runs - 1 do
    let scenario = List.nth scenarios (index mod n) in
    let drawn = shard_schedule rng ~shards ~steps in
    let kills = match kills with Some ks -> ks | None -> drawn in
    let run_seed = Sim.Rng.int rng 0x3FFFFFFF in
    let engine_buf = ref [] in
    let sup_buf = ref [] in
    let counters =
      scenario.sh_run ~seed:run_seed ~kills
        ~engine:(Obs.Sink.collect (fun ev -> engine_buf := ev :: !engine_buf))
        ~supervision:(Obs.Sink.collect (fun ev -> sup_buf := ev :: !sup_buf))
    in
    let engine_events = List.rev !engine_buf in
    let sup_events = List.rev !sup_buf in
    let config = "chaos sharded scenario=" ^ scenario.sh_name in
    if Obs.Sink.is_active trace then begin
      emit_segment ~seed:run_seed ~config ~run:(2 * index) engine_events;
      emit_segment ~seed:run_seed ~config:(config ^ " supervision")
        ~run:((2 * index) + 1)
        sup_events
    end;
    (* In-memory check: same two-segment structure, one boundary. *)
    let boundary =
      Obs.Event.make ~t_us:0
        (Obs.Event.Run_start { run = 1; seed = None; config = None })
    in
    let check = Obs.Check.check_events (engine_events @ (boundary :: sup_events)) in
    results :=
      {
        sr_scenario = scenario.sh_name;
        sr_index = index;
        sr_kills = kills;
        sr_counters = counters;
        sr_engine_events = List.length engine_events;
        sr_supervision_events = List.length sup_events;
        sr_check = check;
      }
      :: !results
  done;
  let rounds = List.rev !results in
  let violation_count (r : Obs.Check.report) =
    List.fold_left (fun acc (_, n) -> acc + n) 0 r.counts
  in
  {
    sr_runs = rounds;
    sr_total_events =
      List.fold_left
        (fun acc r -> acc + r.sr_engine_events + r.sr_supervision_events)
        0 rounds;
    sr_violations =
      List.fold_left (fun acc r -> acc + violation_count r.sr_check) 0 rounds;
    sr_totals =
      List.fold_left (fun acc r -> add_counters acc r.sr_counters) [] rounds;
  }

let sharded_ok s = s.sr_violations = 0

let sharded_counter s name =
  match List.assoc_opt name s.sr_totals with Some n -> n | None -> 0
