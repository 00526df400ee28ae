(* multiprog_io: the shape of experiments C7 and X8.  Seeded job mixes
   run through Dsas.Multiprog with LRU over a shared frame pool, their
   page fetches queued on a timed ATLAS drum (Device.Model) under each
   scheduling policy with one and two channels.  Each cell draws its own
   mix: the work in one mix varies by several percent with the seed, and
   a pass over six independent mixes varies less.  An active sink
   serializes every event.  An operation is one reference. *)

let jobs = 6

let refs_per_job = 2_000

let frames = 32

let scheds = [| Device.Sched.Fifo; Device.Sched.Satf; Device.Sched.Priority |]

let channels = [| 1; 2 |]

(* The sink every cell reports through: each event is serialized as a
   JSON line into [out].  When traced, [io_ns] accumulates the time
   spent emitting the device's io events. *)
let sink ~tracer ~events ~io_ns out =
  match tracer with
  | None ->
    Obs.Sink.collect (fun ev ->
        incr events;
        Work.out_line out (Obs.Event.to_json ev))
  | Some t ->
    let emit = Span.node t "obs.emit" and serialize = Span.node t "obs.serialize" in
    Obs.Sink.collect (fun (ev : Obs.Event.t) ->
        let before = emit.total_ns in
        Span.enter t emit;
        incr events;
        Span.enter t serialize;
        Work.out_line out (Obs.Event.to_json ev);
        Span.leave t;
        Span.leave t;
        match ev.kind with
        | Io_start _ | Io_done _ | Io_retry _ | Io_error _ ->
          io_ns := !io_ns + (emit.total_ns - before)
        | _ -> ())

let is_dispatch path =
  String.equal path "device.dispatch" || String.ends_with ~suffix:";device.dispatch" path

(* Device.Model times its dispatches with Obs.Prof.  In a traced cell
   the profiler runs for the length of [f], and the time of every
   device.dispatch row moves out of the multiprog span into a
   device.dispatch span, less the time spent emitting io events: the
   device emits exactly those, and only inside a dispatch.  The
   profiler's own cost stays in the multiprog span. *)
let with_device_span t ~io_ns f =
  Obs.Prof.reset ();
  Obs.Prof.enable ();
  let v = Fun.protect ~finally:Obs.Prof.disable f in
  let ns, count =
    List.fold_left
      (fun (ns, count) (r : Obs.Prof.row) ->
        if is_dispatch r.path then (ns + r.total_ns, count + r.count) else (ns, count))
      (0, 0) (Obs.Prof.rows ())
  in
  Obs.Prof.reset ();
  Span.add_child t ~parent:"multiprog" ~name:"device.dispatch" ~count (ns - !io_ns);
  v

let setup ~seed =
  let n_cells = Array.length scheds * Array.length channels in
  let streams = Work.streams ~seed n_cells in
  let mixes, gen_ns =
    Work.timed (fun () ->
        Array.map
          (fun rng ->
            Workload.Job.mix rng ~jobs ~refs_per_job ~pages_per_job:24 ~locality:0.9
              ~compute_us_per_ref:15)
          streams)
  in
  (* The benchmark's trace buffer, not part of the engines' set-up.  It
     is sized above any cell's trace, so the peak heap does not depend on
     where the buffer happened to grow. *)
  let out = lazy (Work.out_create (2 lsl 20)) in
  let run ~check ~tracer ~width:_ =
    let out = Lazy.force out in
    let served = ref 0 and depth = ref 0. and total_events = ref 0 and bytes = ref 0 in
    let ops = ref 0 in
    let cells =
      Array.init n_cells (fun k ->
          let sched = scheds.(k / Array.length channels)
          and ch = channels.(k mod Array.length channels) in
          let id = Printf.sprintf "multiprog_io/drum/%s/%dch" (Device.Sched.name sched) ch in
          Work.guard ~tracer ~id (fun _ ->
              Work.out_clear out;
              let events = ref 0 and io_ns = ref 0 in
              let obs = sink ~tracer ~events ~io_ns out in
              let device =
                Device.Model.create ~obs
                  (Device.Model.config ~sched ~channels:ch Device.Geometry.atlas_drum)
              in
              let policy =
                match tracer with
                | None -> Paging.Replacement.lru ()
                | Some t ->
                  Work.traced_policy t ~victim:"replacement.victim.lru"
                    ~candidate_words:(ref 0) (Paging.Replacement.lru ())
              in
              let simulate () =
                Work.within tracer "multiprog" (fun () ->
                    Dsas.Multiprog.run ~obs ~device ~frames ~policy ~fetch_us:5_000 mixes.(k))
              in
              let r =
                match tracer with
                | None -> simulate ()
                | Some t -> with_device_span t ~io_ns simulate
              in
              let d = Device.Model.stats device in
              List.iter (fun (j : Dsas.Multiprog.job_report) -> ops := !ops + j.refs) r.jobs;
              served := !served + d.served;
              depth := !depth +. d.mean_queue_depth;
              total_events := !total_events + !events;
              bytes := !bytes + out.len;
              let completed =
                r.jobs_failed = 0
                && List.length r.jobs = jobs
                && List.for_all (fun (j : Dsas.Multiprog.job_report) -> j.completed) r.jobs
              in
              ( Printf.sprintf
                  "elapsed=%d busy=%d faults=%d restarts=%d failed=%d jobs=[%s] served=%d \
                   read=%d latency=%.17g depth=%.17g max_depth=%d channel_busy=%d events=%d \
                   bytes=%d trace=%s"
                  r.elapsed_us r.cpu_busy_us r.total_faults r.restarts r.jobs_failed
                  (String.concat ";"
                     (List.map
                        (fun (j : Dsas.Multiprog.job_report) ->
                          Printf.sprintf "%s:%d:%d:%d" j.job j.refs j.faults j.finish_us)
                        r.jobs))
                  d.served d.read_served d.mean_read_latency_us d.mean_queue_depth
                  d.max_queue_depth d.busy_us !events out.len (Work.out_digest out),
                (not check) || completed )))
    in
    let n = float_of_int n_cells in
    {
      Work.ops = !ops;
      cells = Array.map fst cells;
      bad = Work.failed cells;
      counters =
        [
          ("device.served", float_of_int !served);
          ("device.mean_queue_depth", !depth /. n);
          ("obs.events", float_of_int !total_events);
          ("obs.bytes", float_of_int !bytes);
        ];
    }
  in
  { Work.run; gen_ns }

let workload = { Work.name = "multiprog_io"; setup }
