(* Multicore chaos: the supervised sharded engines under seeded
   shard-kill schedules.

   Each scenario runs a small sharded workload twice: once fault-free
   at width 1 (the reference) and once supervised at the requested
   width under the harness's kill schedule.  The supervised engine
   trace must be byte-identical to the reference — crashes, restarts
   and checkpoint resume are invisible in the observable record — and
   any divergence is surfaced as a counter the harness (and CI) can
   gate on.  The same reference-vs-recovered check serves X11 and the
   par_chaos campaign cell. *)

let shards = 4
let steps ~quick = if quick then 150 else 600

type recovered = {
  trace : Obs.Event.t array;
  outcomes : Parallel.Supervisor.outcome array;
  supervision : Obs.Event.t array;
  identical : bool;
  crashes : int;
  restarts : int;
  checkpoints : int;
}

type 'r recovery = {
  reference : 'r;
  reference_trace : Obs.Event.t array;
  subject : (recovered, Resilience.Failure.t) result;
}

let collector () =
  let buf = ref [] in
  let sink = Obs.Sink.collect (fun ev -> buf := ev :: !buf) in
  (sink, fun () -> Array.of_list (List.rev !buf))

(* Byte for byte on the wire encoding — the same bytes a --trace file
   would hold. *)
let traces_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> String.equal (Obs.Event.to_json x) (Obs.Event.to_json y))
       a b

let recover ~reference ~supervised =
  let ref_sink, ref_trace = collector () in
  let reference = reference ~obs:ref_sink in
  let reference_trace = ref_trace () in
  let sink, engine_trace = collector () in
  let sup_sink, supervision = collector () in
  let subject =
    Result.map
      (fun (_, outcomes) ->
        let trace = engine_trace () in
        let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outcomes in
        {
          trace;
          outcomes;
          supervision = supervision ();
          identical = traces_equal reference_trace trace;
          crashes = sum (fun (o : Parallel.Supervisor.outcome) -> o.o_crashes);
          restarts = sum (fun (o : Parallel.Supervisor.outcome) -> o.o_restarts);
          checkpoints = sum (fun (o : Parallel.Supervisor.outcome) -> o.o_checkpoints);
        })
      (supervised ~obs:sink ~supervision:sup_sink)
  in
  { reference; reference_trace; subject }

let check_kills ~quick kills =
  Parallel.Supervisor.check_kills ~shards ~steps:(steps ~quick) kills

let recover_alloc ~domains ~kills ~checkpoint_every cfg =
  recover
    ~reference:(fun ~obs -> Parallel.Sharded.run_alloc ~obs ~domains:1 cfg)
    ~supervised:(fun ~obs ~supervision ->
      Parallel.Sharded.run_alloc_supervised ~obs ~supervision ~kills
        ~checkpoint_every ~domains cfg)

let recover_paging ~domains ~kills ~checkpoint_every cfg =
  recover
    ~reference:(fun ~obs -> Parallel.Sharded.run_paging ~obs ~domains:1 cfg)
    ~supervised:(fun ~obs ~supervision ->
      Parallel.Sharded.run_paging_supervised ~obs ~supervision ~kills
        ~checkpoint_every ~domains cfg)

(* The harness's verdict counters; an escalated run emitted nothing. *)
let scenario ~quick name check =
  Resilience.Chaos.Shard_kills
    {
      name;
      shards;
      steps = steps ~quick;
      run =
        (fun ~seed ~kills ~engine ~supervision ->
          match (check ~seed ~kills).subject with
          | Error _ -> [ ("escalated", 1); ("diverged", 0) ]
          | Ok r ->
            Array.iter (Obs.Sink.emit engine) r.trace;
            Array.iter (Obs.Sink.emit supervision) r.supervision;
            [
              ("crashes", r.crashes);
              ("restarts", r.restarts);
              ("checkpoints", r.checkpoints);
              ("escalated", 0);
              ("diverged", if r.identical then 0 else 1);
            ]);
    }

let scenarios ?(quick = false) ?(domains = 2) () =
  [
    scenario ~quick "par_alloc_supervised" (fun ~seed ~kills ->
        recover_alloc ~domains ~kills ~checkpoint_every:32
          (Parallel.Sharded.alloc_config ~shards ~ops_per_shard:(steps ~quick)
             ~slots_per_shard:64 ~slot_words:8 ~seed ()));
    scenario ~quick "par_paging_supervised" (fun ~seed ~kills ->
        recover_paging ~domains ~kills ~checkpoint_every:32
          (Parallel.Sharded.paging_config ~shards ~refs_per_shard:(steps ~quick)
             ~frames_per_shard:6 ~pages_per_shard:12 ~seed ()));
  ]
