(* sharded_trace: the pair of experiment X11.  Parallel.Sharded runs a
   four-shard allocation engine and a four-shard paging engine under
   the supervisor (no kills, in-memory checkpoints, a telemetry
   cadence).  Every fourth paging reference is a write, so dirty pages
   are written back.  Each merged trace is serialized with
   Obs.Event.to_json and exported with Obs.Export.chrome_of_events.  An
   operation is one alloc/free operation or one reference. *)

let shards = 4

let ops_per_shard = 5_000

let refs_per_shard = 2_000

let telemetry_us = 5_000

let checkpoint_every = 256

let collector ~tracer =
  let buf = ref [] in
  let sink =
    match tracer with
    | None -> Obs.Sink.collect (fun ev -> buf := ev :: !buf)
    | Some t ->
      let emit = Span.node t "obs.emit" in
      Obs.Sink.collect (fun ev ->
          Span.enter t emit;
          buf := ev :: !buf;
          Span.leave t)
  in
  (sink, fun () -> Array.of_list (List.rev !buf))

(* Serialize and export one merged trace; the digests and sizes become
   part of the cell's statistics. *)
let render ~tracer out events =
  Work.out_clear out;
  Work.within tracer "obs.serialize" (fun () ->
      Array.iter (fun ev -> Work.out_line out (Obs.Event.to_json ev)) events);
  let chrome =
    Work.within tracer "obs.export" (fun () ->
        Obs.Export.chrome_of_events (Array.to_list events))
  in
  ( out.Work.len,
    Printf.sprintf "events=%d bytes=%d trace=%s chrome_bytes=%d chrome=%s"
      (Array.length events) out.len (Work.out_digest out) (String.length chrome)
      (Digest.to_hex (Digest.string chrome)) )

let telemetry_digest snaps =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (Array.to_list (Array.map Obs.Telemetry.snapshot_to_json snaps))))

let checkpoints outcomes =
  Array.fold_left (fun acc (o : Parallel.Supervisor.outcome) -> acc + o.o_checkpoints) 0 outcomes

let setup ~seed =
  let streams = Work.streams ~seed 2 in
  let (alloc_cfg, paging_cfg), gen_ns =
    Work.timed (fun () ->
        ( Parallel.Sharded.alloc_config ~shards ~ops_per_shard ~slots_per_shard:512
            ~slot_words:16 ~op_us:5
            ~seed:(Sim.Rng.int streams.(0) (1 lsl 30))
            (),
          Parallel.Sharded.paging_config ~shards ~refs_per_shard ~frames_per_shard:12
            ~pages_per_shard:24 ~page_size:256 ~policy:Paging.Spec.Lru
            ~compute_us_per_ref:50
            ~seed:(Sim.Rng.int streams.(1) (1 lsl 30))
            () ))
  in
  (* The benchmark's trace buffer, not part of the engines' set-up.  It
     is sized above either merged trace, so the peak heap does not depend
     on where the buffer happened to grow. *)
  let out = lazy (Work.out_create (2 lsl 20)) in
  let run ~check ~tracer ~width =
    let out = Lazy.force out in
    let events = ref 0 and bytes = ref 0 and ckpts = ref 0 and snaps = ref 0 in
    let finish ~merged ~outcomes ~telemetry ~report =
      let n, rendered = render ~tracer out merged in
      events := !events + Array.length merged;
      bytes := !bytes + n;
      ckpts := !ckpts + checkpoints outcomes;
      snaps := !snaps + Array.length telemetry;
      let clean = (not check) || Obs.Check.ok (Obs.Check.check_events (Array.to_list merged)) in
      ( Printf.sprintf "%s checkpoints=%d telemetry=%d:%s %s" report (checkpoints outcomes)
          (Array.length telemetry) (telemetry_digest telemetry) rendered,
        clean )
    in
    let alloc =
      Work.guard ~tracer ~id:"sharded_trace/alloc" (fun _ ->
          let obs, contents = collector ~tracer in
          match
            Work.within tracer "parallel.alloc" (fun () ->
                Parallel.Sharded.run_alloc_supervised ~obs ~telemetry:telemetry_us
                  ~checkpoint_every ~domains:width alloc_cfg)
          with
          | Error f -> failwith (Resilience.Failure.to_string f)
          | Ok (r, outcomes) ->
            let report =
              String.concat ";"
                (Array.to_list
                   (Array.map
                      (fun (s : Parallel.Sharded.shard_alloc) ->
                        Printf.sprintf "%d:%d:%d:%d:%d:%d:%d:%d:%d" s.sa_shard s.sa_allocs
                          s.sa_frees s.sa_failures s.sa_refills s.sa_flushes s.sa_live
                          s.sa_elapsed_us s.sa_events)
                      r.ar_shards))
            in
            finish ~merged:(contents ()) ~outcomes
              ~telemetry:r.ar_telemetry
              ~report:(Printf.sprintf "shards=[%s] merged=%d" report r.ar_events))
    in
    let paging =
      Work.guard ~tracer ~id:"sharded_trace/paging" (fun _ ->
          let obs, contents = collector ~tracer in
          match
            Work.within tracer "parallel.paging" (fun () ->
                Parallel.Sharded.run_paging_supervised ~obs ~telemetry:telemetry_us
                  ~checkpoint_every ~domains:width paging_cfg)
          with
          | Error f -> failwith (Resilience.Failure.to_string f)
          | Ok (r, outcomes) ->
            let report =
              String.concat ";"
                (Array.to_list
                   (Array.map
                      (fun (s : Parallel.Sharded.shard_paging) ->
                        Printf.sprintf "%d:%d:%d:%d:%d:%d" s.sp_shard s.sp_refs s.sp_faults
                          s.sp_writebacks s.sp_elapsed_us s.sp_events)
                      r.pr_shards))
            in
            finish ~merged:(contents ()) ~outcomes
              ~telemetry:r.pr_telemetry
              ~report:(Printf.sprintf "shards=[%s] merged=%d" report r.pr_events))
    in
    let cells = [| alloc; paging |] in
    {
      Work.ops = (shards * ops_per_shard) + (shards * refs_per_shard);
      cells = Array.map fst cells;
      bad = Work.failed cells;
      counters =
        [
          ("obs.events", float_of_int !events);
          ("obs.bytes", float_of_int !bytes);
          ("parallel.checkpoints", float_of_int !ckpts);
          ("telemetry.snapshots", float_of_int !snaps);
        ];
    }
  in
  { Work.run; gen_ns }

let workload = { Work.name = "sharded_trace"; setup }
