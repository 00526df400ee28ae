(* dsas_sim: run the paper's experiments from the command line.

   `dsas_sim list`                        enumerate experiments
   `dsas_sim run fig3`                    run one experiment at full scale
   `dsas_sim run fig3 --trace f.jsonl`    ... recording its event stream
   `dsas_sim run fig3 --profile`         ... profiling the simulator itself
   `dsas_sim run --quick all`             smoke-run everything
   `dsas_sim stats f.jsonl`               aggregate a recorded stream
   `dsas_sim query f.jsonl ...`           filter/group/pair a recorded stream
   `dsas_sim run fig3 --telemetry t.jsonl`  ... with live periodic snapshots
   `dsas_sim top t.jsonl --follow`        tail a telemetry stream live
   `dsas_sim export f.jsonl --format chrome`  Perfetto / flamegraph / CSV export *)

open Cmdliner

let list_cmd =
  let doc = "List every experiment with its source in the paper." in
  let info = Cmd.info "list" ~doc in
  let action () =
    List.iter
      (fun e ->
        Printf.printf "%-8s %-55s [%s]\n" e.Experiments.Registry.id
          e.Experiments.Registry.title e.Experiments.Registry.paper_source)
      Experiments.Registry.all
  in
  Cmd.v info Term.(const action $ const ())

let quick_flag =
  let doc = "Run at reduced scale (smoke test)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let id_arg =
  let doc = "Experiment id from `dsas_sim list`, or `all`." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)

(* A wrong experiment id must fail loudly (non-zero exit) and say what
   would have worked. *)
let unknown_id id =
  `Error
    ( false,
      Printf.sprintf "unknown experiment %S; valid ids: %s (or `all`)" id
        (String.concat ", " Experiments.Registry.ids) )

let seed_arg =
  let doc =
    "Override the seed of every randomized stage (workload generation, fault \
     schedules).  Runs are reproducible either way; the default is each \
     experiment's historical per-site seed."
  in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)

let run_cmd =
  let doc = "Run one experiment (or all of them)." in
  let info = Cmd.info "run" ~doc in
  let trace_out_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record the experiment's event stream as JSON Lines into $(docv) \
                 (one event object per line; inspect with `dsas_sim stats` or \
                 `dsas_sim query`). \
                 Only valid for a single traced experiment — see `dsas_sim list`.")
  in
  let metrics_out_arg =
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Fold the event stream into a metrics registry as it is emitted \
                 (per-kind counters, io latency histogram) and write the full \
                 registry snapshot as JSON into $(docv).  Same restrictions as \
                 --trace.")
  in
  let profile_flag =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Profile the simulator's own hot paths (host wall-clock spans: \
                 fetch, victim selection, device dispatch, compaction, \
                 scheduling) and print the span table after the run.")
  in
  let profile_out_arg =
    Arg.(value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE"
           ~doc:"Write the profile as folded stacks (`path self_us` per line, \
                 flamegraph.pl/speedscope input) into $(docv).  Implies \
                 profiling; combine with --profile to also print the table.")
  in
  let device_arg =
    Arg.(value & opt (some string) None & info [ "device" ] ~docv:"DEVICE"
           ~doc:"Backing-store geometry for x8_devices: fixed, drum, or disk.")
  in
  let sched_arg =
    Arg.(value & opt (some string) None & info [ "io-sched" ] ~docv:"POLICY"
           ~doc:"I/O scheduling policy for x8_devices: fifo, satf, or priority.")
  in
  let channels_arg =
    Arg.(value & opt (some int) None & info [ "channels" ] ~docv:"N"
           ~doc:"Device channels for x8_devices (>= 1).")
  in
  let domains_arg =
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
           ~doc:"Execution width for x11_parallel: run its shard pool on $(docv) \
                 OCaml domains, 1 <= $(docv) <= this machine's recommended \
                 domain count.  Results are bit-identical for every valid \
                 $(docv) -- the shard count fixes the workload, domains only \
                 the width.")
  in
  let kill_shard_arg =
    Arg.(value & opt (some string) None & info [ "kill-shard" ] ~docv:"SPEC"
           ~doc:"Inject deterministic shard kills into the supervised \
                 x11_parallel run: comma-separated $(b,S@P) pairs, killing \
                 shard $(b,S) after it completes workload step $(b,P).  \
                 Repeating a shard kills successive execution attempts in \
                 order; more kills for one shard than its restart budget (3) \
                 escalates, prints ESCALATED, and exits non-zero.")
  in
  let telemetry_out_arg =
    Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE"
           ~doc:"Sample the event stream into periodic dsas-telemetry/1 \
                 snapshots (per-kind event counters, in-flight io gauge), \
                 appended to $(docv) as JSON lines while the run is going — \
                 tail it live with `dsas_sim top`.  The cadence is simulated \
                 time, so the snapshot sequence is deterministic.  Same \
                 restrictions as --trace.")
  in
  let telemetry_every_arg =
    Arg.(value & opt int 10_000 & info [ "telemetry-every" ] ~docv:"US"
           ~doc:"Telemetry cadence in simulated microseconds (default 10000).")
  in
  let watch_arg =
    Arg.(value & opt_all string [] & info [ "watch" ] ~docv:"RULE"
           ~doc:"With --telemetry: evaluate a watchdog rule over the snapshot \
                 stream (repeatable).  Grammar: $(b,METRIC>V@K) / \
                 $(b,METRIC<V@K) (threshold held for K snapshots), \
                 $(b,METRIC=@K) (stalled for K), $(b,METRIC+V@K) (advanced \
                 less than V over K); a trailing $(b,!) escalates — the run \
                 exits non-zero if the rule ever fires.  Fires and clears are \
                 recorded as watchdog_* events in the --trace stream.")
  in
  let action quick id trace_out metrics_out profile profile_out device sched channels
      domains kill_shard seed telemetry_out telemetry_every watch =
    let profiling = profile || profile_out <> None in
    (* Watchdog rules are parsed up front: a typo must fail before any
       simulation runs, not after. *)
    let watch_rules =
      List.fold_left
        (fun acc spec ->
          match acc with
          | Error _ -> acc
          | Ok rules ->
            (match Obs.Watch.parse spec with
             | Ok r -> Ok (rules @ [ r ])
             | Error msg -> Error msg))
        (Ok []) watch
    in
    (* Wrap the simulation in the profiler; report once it finishes. *)
    let profiled f =
      if not profiling then f ()
      else begin
        Obs.Prof.reset ();
        Obs.Prof.enable ();
        let result = Fun.protect ~finally:Obs.Prof.disable f in
        (match profile_out with
         | None -> ()
         | Some file ->
           let oc = open_out file in
           output_string oc (Obs.Prof.folded ());
           close_out oc);
        if profile then Obs.Prof.print stdout;
        result
      end
    in
    (* A bad --domains must fail loudly (non-zero exit) and say what
       would have worked, exactly like a bad experiment id. *)
    let max_domains = Parallel.Pool.available_domains () in
    let kills =
      match kill_shard with
      | None -> Ok []
      | Some spec -> Parallel.Supervisor.parse_kills spec
    in
    let domains_error =
      match domains with
      | Some n when n < 1 || n > max_domains ->
        Some
          (Printf.sprintf
             "invalid --domains %d; this machine supports 1..%d \
              (Domain.recommended_domain_count)"
             n max_domains)
      | Some _ when String.lowercase_ascii id <> "x11_parallel" ->
        Some
          "--domains selects the x11_parallel execution width; use it with \
           `run x11_parallel`"
      | Some n when n > 1 && profiling ->
        Some "the profiler's span table is not domain-safe; profile at --domains 1"
      | _ -> (
        match kills with
        | Error msg -> Some msg
        | Ok (_ :: _) when String.lowercase_ascii id <> "x11_parallel" ->
          Some
            "--kill-shard injects faults into the supervised x11_parallel \
             run; use it with `run x11_parallel`"
        | Ok _ -> None)
    in
    let telemetry_error =
      if telemetry_every < 1 then
        Some "--telemetry-every must be >= 1 (simulated microseconds)"
      else if watch <> [] && telemetry_out = None then
        Some "--watch evaluates rules over the telemetry stream; add --telemetry FILE"
      else match watch_rules with Error msg -> Some msg | Ok _ -> None
    in
    let watch_rules = match watch_rules with Ok rs -> rs | Error _ -> [] in
    let kills = match kills with Ok ks -> ks | Error _ -> [] in
    (* x11_parallel is the one entry that takes the execution width and
       the kill schedule; it reports escalation through its return
       value, which must surface as a non-zero exit. *)
    let escalated = ref false in
    let run_entry e ~quick ~obs ?seed () =
      if String.equal e.Experiments.Registry.id "x11_parallel" then begin
        if not (Experiments.X11_parallel.run ~quick ~obs ?seed ?domains ~kills ())
        then escalated := true
      end
      else e.Experiments.Registry.run ~quick ~obs ?seed ()
    in
    let unless_escalated () =
      if !escalated then
        `Error
          ( false,
            "x11_parallel: a shard exhausted its restart budget and escalated" )
      else `Ok ()
    in
    (* The first escalating watchdog fire, if any: surfaced as a
       non-zero exit after the run finishes (the simulation is not cut
       short — telemetry observes, it does not steer). *)
    let watch_tripped = ref None in
    (* Run a traced experiment with the requested observers attached. *)
    let run_observed e =
      let oc = Option.map open_out trace_out in
      let trace_sink =
        match oc with Some oc -> Obs.Sink.jsonl oc | None -> Obs.Sink.null
      in
      let reg = Obs.Registry.create () in
      (* Identity stamps: the metrics artifact names the experiment and
         seed that produced it. *)
      Obs.Registry.set_meta reg
        ([ ("experiment", e.Experiments.Registry.id) ]
         @ (match seed with Some s -> [ ("seed", string_of_int s) ] | None -> []));
      let obs =
        match metrics_out with
        | None -> trace_sink
        | Some _ -> Obs.Sink.tee trace_sink (Obs.Query.metrics_sink reg)
      in
      (* The telemetry tap: a self-contained channel folding the event
         stream into its own registry and mirroring each snapshot to the
         --telemetry file.  Watchdog rules ride the capture hook; their
         fire/clear events are appended to the trace (stamped with the
         snapshot's engine time), and rule state resets at run_start
         boundaries like every other invariant scope. *)
      let tele_oc = Option.map open_out telemetry_out in
      let obs, finish_telemetry =
        match tele_oc with
        | None -> (obs, fun () -> ())
        | Some out ->
          let chan = Obs.Telemetry.create ~every_us:telemetry_every () in
          Obs.Telemetry.mirror chan out;
          let tele_reg = Obs.Registry.create () in
          let watchdog = Obs.Watch.create watch_rules in
          Obs.Telemetry.on_capture chan (fun sn ->
              let alerts = Obs.Watch.feed watchdog sn in
              List.iter
                (fun ev -> Obs.Sink.emit trace_sink ev)
                (Obs.Watch.alert_events ~t_us:sn.Obs.Telemetry.sn_t_us alerts);
              List.iter
                (fun alert ->
                  match alert with
                  | Obs.Watch.Fire { rule; snapshots } ->
                    Printf.eprintf "watchdog: %s FIRED after %d snapshot(s)%s\n%!"
                      rule.Obs.Watch.name snapshots
                      (if rule.Obs.Watch.escalate then " (escalates)" else "");
                    if rule.Obs.Watch.escalate && !watch_tripped = None then
                      watch_tripped := Some rule.Obs.Watch.name
                  | Obs.Watch.Clear { rule; snapshots } ->
                    Printf.eprintf "watchdog: %s cleared after %d snapshot(s)\n%!"
                      rule.Obs.Watch.name snapshots)
                alerts);
          let last_t = ref 0 in
          let boundary =
            Obs.Sink.collect (fun (ev : Obs.Event.t) ->
                last_t := max !last_t ev.t_us;
                match ev.kind with
                | Obs.Event.Run_start _ -> Obs.Watch.reset watchdog
                | _ -> ())
          in
          let tap = Obs.Telemetry.events_sink chan tele_reg in
          ( Obs.Sink.tee obs (Obs.Sink.tee boundary tap),
            fun () ->
              (* Closing capture: the end-of-run state, so a run shorter
                 than one cadence interval still yields a snapshot. *)
              ignore (Obs.Telemetry.capture chan ~t_us:!last_t tele_reg) )
      in
      Fun.protect
        ~finally:(fun () ->
          Obs.Sink.flush obs;
          Option.iter close_out oc;
          Option.iter close_out tele_oc)
        (fun () ->
          Fun.protect ~finally:finish_telemetry (fun () ->
              profiled (fun () -> run_entry e ~quick ~obs ?seed ())));
      match metrics_out with
      | None -> ()
      | Some file ->
        let oc = open_out file in
        output_string oc (Obs.Registry.to_json reg);
        output_char oc '\n';
        close_out oc
    in
    match domains_error with
    | Some msg -> `Error (false, msg)
    | None ->
    match telemetry_error with
    | Some msg -> `Error (false, msg)
    | None ->
    match (device, sched, channels) with
    | Some _, _, _ | _, Some _, _ | _, _, Some _
      when String.lowercase_ascii id <> "x8_devices" ->
      `Error
        (false, "--device/--io-sched/--channels select an x8_devices configuration; \
                 use them with `run x8_devices`")
    | Some _, _, _ | _, Some _, _ | _, _, Some _ ->
      if trace_out <> None || metrics_out <> None || telemetry_out <> None then
        `Error
          ( false,
            "--trace/--metrics-out/--telemetry do not apply to custom \
             x8_devices runs" )
      else begin
        let device = Option.value device ~default:"drum" in
        let sched = Option.value sched ~default:"fifo" in
        let channels = Option.value channels ~default:1 in
        match
          profiled (fun () ->
              Experiments.X8_devices.run_custom ~quick ~device ~sched ~channels ())
        with
        | Ok () -> `Ok ()
        | Error msg -> `Error (false, msg)
      end
    | None, None, None ->
      if trace_out = None && metrics_out = None && telemetry_out = None then begin
        if String.lowercase_ascii id = "all" then begin
          profiled (fun () -> Experiments.Registry.run_all ~quick ?seed ());
          `Ok ()
        end
        else
          match Experiments.Registry.find id with
          | Some e ->
            profiled (fun () -> run_entry e ~quick ~obs:Obs.Sink.null ?seed ());
            unless_escalated ()
          | None -> unknown_id id
      end
      else if String.lowercase_ascii id = "all" then
        `Error
          ( false,
            "--trace/--metrics-out/--telemetry need a single experiment, not \
             `all`" )
      else
        (match Experiments.Registry.find id with
         | None -> unknown_id id
         | Some e when not (Experiments.Registry.is_traced e.Experiments.Registry.id) ->
           `Error
             ( false,
               Printf.sprintf "experiment %S does not emit events; traced ones: %s"
                 id
                 (String.concat ", " Experiments.Registry.traced) )
         | Some e ->
           run_observed e;
           (match !watch_tripped with
            | Some rule ->
              `Error
                ( false,
                  Printf.sprintf
                    "watchdog rule %S fired and escalates; see the telemetry \
                     stream" rule )
            | None -> unless_escalated ()))
  in
  Cmd.v info
    Term.(
      ret
        (const action $ quick_flag $ id_arg $ trace_out_arg $ metrics_out_arg
         $ profile_flag $ profile_out_arg $ device_arg $ sched_arg $ channels_arg
         $ domains_arg $ kill_shard_arg $ seed_arg $ telemetry_out_arg
         $ telemetry_every_arg $ watch_arg))

let json_flag =
  let doc = "Emit the result as a single JSON object on stdout." in
  Arg.(value & flag & info [ "json" ] ~doc)

let replay_cmd =
  let doc = "Replay a reference trace file (see tracegen) through the fault simulator." in
  let info = Cmd.info "replay" ~doc in
  let trace_arg =
    Arg.(required & opt (some file) None & info [ "trace"; "t" ] ~docv:"FILE"
           ~doc:"Trace file: one address per line.")
  in
  let frames_arg =
    Arg.(value & opt int 16 & info [ "frames" ] ~doc:"Page frames of working storage.")
  in
  let page_arg =
    Arg.(value & opt int 1 & info [ "page-size" ]
           ~doc:"Words per page (1 = the trace already holds page numbers).")
  in
  let policy_arg =
    let policies =
      [ ("fifo", Paging.Spec.Fifo); ("lru", Paging.Spec.Lru); ("clock", Paging.Spec.Clock);
        ("random", Paging.Spec.Random); ("nru", Paging.Spec.Nru); ("lfu", Paging.Spec.Lfu);
        ("atlas", Paging.Spec.Atlas); ("m44", Paging.Spec.M44); ("opt", Paging.Spec.Opt) ]
    in
    Arg.(value & opt (enum policies) Paging.Spec.Lru & info [ "policy"; "p" ]
           ~doc:"Replacement policy: fifo, lru, clock, random, nru, lfu, atlas, m44, opt.")
  in
  let replay word_trace frames page_size policy_spec json =
    let trace =
      if page_size = 1 then word_trace else Workload.Trace.to_pages ~page_size word_trace
    in
    let policy =
      Paging.Spec.instantiate policy_spec ~rng:(Sim.Rng.create 1) ~trace:(Some trace)
    in
    let r = Paging.Fault_sim.run ~frames ~policy trace in
    let policy = Paging.Spec.to_string policy_spec in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("policy", Obs.Json.String policy);
                ("frames", Obs.Json.Int frames);
                ("refs", Obs.Json.Int r.Paging.Fault_sim.refs);
                ("faults", Obs.Json.Int r.Paging.Fault_sim.faults);
                ("fault_rate", Obs.Json.Float (Paging.Fault_sim.fault_rate r));
                ("cold", Obs.Json.Int r.Paging.Fault_sim.cold);
                ("evictions", Obs.Json.Int r.Paging.Fault_sim.evictions);
              ]))
    else
      Printf.printf "%s over %d refs with %d frames: %d faults (%.2f%%), %d cold, %d evictions\n"
        policy r.Paging.Fault_sim.refs frames r.Paging.Fault_sim.faults
        (100. *. Paging.Fault_sim.fault_rate r)
        r.Paging.Fault_sim.cold r.Paging.Fault_sim.evictions
  in
  let action file frames page_size policy_spec json =
    if frames <= 0 then `Error (false, "--frames must be positive")
    else if page_size <= 0 then `Error (false, "--page-size must be positive")
    else
      match Workload.Trace_io.load_trace file with
      | Error msg -> `Error (false, msg)
      | Ok word_trace ->
        replay word_trace frames page_size policy_spec json;
        `Ok ()
  in
  Cmd.v info
    Term.(ret (const action $ trace_arg $ frames_arg $ page_arg $ policy_arg $ json_flag))

let stats_cmd =
  let doc = "Aggregate a recorded JSONL event stream (from `run --trace`)." in
  let info = Cmd.info "stats" ~doc in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"JSONL trace file, one event object per line; $(b,-) reads \
                 standard input.")
  in
  (* Strict loading via Query: an empty or truncated trace is an error
     (exit non-zero), never a silently empty summary. *)
  let action file json =
    match Obs.Query.load file with
    | Error msg -> `Error (false, msg)
    | Ok q ->
      let stats = Obs.Query.to_summary q in
      if json then print_endline (Obs.Query.summary_to_json stats)
      else Obs.Query.print_summary stats;
      `Ok ()
  in
  Cmd.v info Term.(ret (const action $ file_arg $ json_flag))

let query_cmd =
  let doc = "Query a recorded JSONL event stream: filter, group, pair, rank." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Loads a trace recorded by $(b,run --trace) and answers composable \
         questions about it.  Filters ($(b,--kinds), $(b,--run), \
         $(b,--since)/$(b,--until)) restrict the working set; then either \
         $(b,--pair) turns start/done event pairs into a latency distribution, \
         or $(b,--group-by) aggregates ($(b,--agg), $(b,--top)).  With neither, \
         prints the per-kind event counts of whatever survived the filters.";
      `P
        "Loading is strict: a missing, malformed, truncated, or empty trace \
         exits non-zero with a diagnostic.";
      `S Manpage.s_examples;
      `Pre
        "  dsas_sim query t.jsonl --pair io_start,io_done --percentiles\n\
        \  dsas_sim query t.jsonl --kinds fault,eviction --group-by run\n\
        \  dsas_sim query t.jsonl --group-by field:page --top 10";
    ]
  in
  let info = Cmd.info "query" ~doc ~man in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"JSONL trace file, one event object per line; $(b,-) reads \
                 standard input.")
  in
  let kinds_arg =
    Arg.(value & opt (some string) None & info [ "kinds" ] ~docv:"K1,K2"
           ~doc:"Keep only events of these comma-separated kinds.")
  in
  let run_arg =
    Arg.(value & opt (some int) None & info [ "run" ] ~docv:"N"
           ~doc:"Keep only events of run segment $(docv).")
  in
  let since_arg =
    Arg.(value & opt (some int) None & info [ "since" ] ~docv:"US"
           ~doc:"Keep only events with t_us >= $(docv).")
  in
  let until_arg =
    Arg.(value & opt (some int) None & info [ "until" ] ~docv:"US"
           ~doc:"Keep only events with t_us <= $(docv).")
  in
  let group_by_arg =
    Arg.(value & opt (some string) None & info [ "group-by" ] ~docv:"KEY"
           ~doc:"Group events by $(b,kind), $(b,run), or $(b,field:NAME) (a \
                 payload field, e.g. field:page).")
  in
  let agg_arg =
    Arg.(value & opt string "count" & info [ "agg" ] ~docv:"AGG"
           ~doc:"Aggregation per group: $(b,count), $(b,sum:FIELD), or \
                 $(b,mean:FIELD).")
  in
  let top_arg =
    Arg.(value & opt (some int) None & info [ "top" ] ~docv:"N"
           ~doc:"Keep only the $(docv) largest groups, ranked by value.")
  in
  let pair_arg =
    Arg.(value & opt (some string) None & info [ "pair" ] ~docv:"START,DONE"
           ~doc:"Match START events to DONE events by their \"req\" field \
                 (within each run segment) and report the latency \
                 distribution, e.g. $(b,--pair io_start,io_done).")
  in
  let percentiles_flag =
    Arg.(value & flag & info [ "percentiles" ]
           ~doc:"With --pair: also print p50/p90/p99 and the log-bucketed \
                 latency histogram.")
  in
  let exact_flag =
    Arg.(value & flag & info [ "exact" ]
           ~doc:"With --pair: report exact order-statistic percentiles instead \
                 of log-bucket lower bounds (the bucketed p99 can understate \
                 the tail by up to 2x).  Costs a sort of all samples.")
  in
  let parse_group_by s =
    match s with
    | "kind" -> Ok Obs.Query.By_kind
    | "run" -> Ok Obs.Query.By_run
    | s when String.length s > 6 && String.sub s 0 6 = "field:" ->
      Ok (Obs.Query.By_field (String.sub s 6 (String.length s - 6)))
    | s -> Error (Printf.sprintf "bad --group-by %S: want kind, run, or field:NAME" s)
  in
  let parse_agg s =
    match String.split_on_char ':' s with
    | [ "count" ] -> Ok Obs.Query.Count
    | [ "sum"; f ] when f <> "" -> Ok (Obs.Query.Sum f)
    | [ "mean"; f ] when f <> "" -> Ok (Obs.Query.Mean f)
    | _ -> Error (Printf.sprintf "bad --agg %S: want count, sum:FIELD, or mean:FIELD" s)
  in
  let print_groups rows ~count_like =
    List.iter
      (fun (label, v) ->
        if count_like then Printf.printf "%-24s %d\n" label (int_of_float v)
        else Printf.printf "%-24s %.3f\n" label v)
      rows
  in
  let groups_to_json rows =
    Obs.Json.to_string (Obs.Json.Obj (List.map (fun (label, v) -> (label, Obs.Json.Float v)) rows))
  in
  let latency_json (p : Obs.Query.pairing) (l : Obs.Query.latency option) =
    let base =
      [
        ("pairs", Obs.Json.Int (List.length p.Obs.Query.rows));
        ("unmatched_starts", Obs.Json.Int p.Obs.Query.unmatched_starts);
        ("unmatched_dones", Obs.Json.Int p.Obs.Query.unmatched_dones);
      ]
    in
    let latency =
      match l with
      | None -> []
      | Some l ->
        let buckets =
          Array.to_list (Metrics.Histogram.bucket_counts l.Obs.Query.hist)
          |> List.filter (fun (_, n) -> n > 0)
          |> List.map (fun (label, n) ->
                 Obs.Json.Obj [ ("bucket", Obs.Json.String label); ("count", Obs.Json.Int n) ])
        in
        [
          ( "latency_us",
            Obs.Json.Obj
              [
                ("samples", Obs.Json.Int l.Obs.Query.samples);
                ("min", Obs.Json.Int l.Obs.Query.min_us);
                ("mean", Obs.Json.Float l.Obs.Query.mean_us);
                ("p50", Obs.Json.Int l.Obs.Query.p50_us);
                ("p90", Obs.Json.Int l.Obs.Query.p90_us);
                ("p99", Obs.Json.Int l.Obs.Query.p99_us);
                ("max", Obs.Json.Int l.Obs.Query.max_us);
                ("buckets", Obs.Json.List buckets);
              ] );
        ]
    in
    Obs.Json.to_string (Obs.Json.Obj (base @ latency))
  in
  let action file kinds run since until group_by agg top pair percentiles exact json =
    match Obs.Query.load file with
    | Error msg -> `Error (false, msg)
    | Ok q ->
      let kinds = Option.map (String.split_on_char ',') kinds in
      let q = Obs.Query.filter ?kinds ?run ?since_us:since ?until_us:until q in
      (match pair with
       | Some spec ->
         (match String.split_on_char ',' spec with
          | [ start_kind; done_kind ] ->
            (match Obs.Query.pair q ~start_kind ~done_kind with
             | Error msg -> `Error (false, msg)
             | Ok p ->
               let l =
                 if exact then Obs.Query.exact_latency_of p
                 else Obs.Query.latency_of p
               in
               (* Bucketed percentiles are lower bounds; whenever a p99
                  is about to be shown without --exact, say so. *)
               if (not exact) && (json || percentiles) && l <> None then
                 prerr_endline
                   "warning: p50/p90/p99 are log-bucket lower bounds (the \
                    bucketed p99 can understate the tail by up to 2x); pass \
                    --exact for order-statistic percentiles";
               if json then print_endline (latency_json p l)
               else begin
                 Printf.printf "paired %d %s->%s (%d unmatched start(s), %d unmatched done(s))\n"
                   (List.length p.Obs.Query.rows) start_kind done_kind
                   p.Obs.Query.unmatched_starts p.Obs.Query.unmatched_dones;
                 match l with
                 | None -> print_endline "no pairs: no latency distribution"
                 | Some l ->
                   Printf.printf
                     "latency_us: samples=%d min=%d mean=%.1f max=%d\n"
                     l.Obs.Query.samples l.Obs.Query.min_us l.Obs.Query.mean_us
                     l.Obs.Query.max_us;
                   if percentiles then begin
                     Printf.printf "  p50 %d\n  p90 %d\n  p99 %d\n"
                       l.Obs.Query.p50_us l.Obs.Query.p90_us l.Obs.Query.p99_us;
                     Array.iter
                       (fun (label, n) ->
                         if n > 0 then Printf.printf "  %-16s %d\n" label n)
                       (Metrics.Histogram.bucket_counts l.Obs.Query.hist)
                   end
               end;
               `Ok ())
          | _ ->
            `Error (false, Printf.sprintf "bad --pair %S: want START,DONE" spec))
       | None ->
         let key =
           match group_by with
           | None -> Ok Obs.Query.By_kind
           | Some s -> parse_group_by s
         in
         (match (key, parse_agg agg) with
          | Error msg, _ | _, Error msg -> `Error (false, msg)
          | Ok key, Ok agg ->
            let rows = Obs.Query.group q ~key ~agg in
            let rows = match top with None -> rows | Some n -> Obs.Query.top n rows in
            let count_like = match agg with Obs.Query.Mean _ -> false | _ -> true in
            if json then print_endline (groups_to_json rows)
            else begin
              Printf.printf "%d event(s) after filters\n" (Obs.Query.length q);
              print_groups rows ~count_like
            end;
            `Ok ()))
  in
  Cmd.v info
    Term.(
      ret
        (const action $ file_arg $ kinds_arg $ run_arg $ since_arg $ until_arg
         $ group_by_arg $ agg_arg $ top_arg $ pair_arg $ percentiles_flag
         $ exact_flag $ json_flag))

let check_cmd =
  let doc = "Validate a recorded JSONL event stream against the trace invariants." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Replays a trace recorded by $(b,run --trace) against the typed event \
         schema and the cross-event invariants below.  Exits non-zero, with a \
         per-invariant failure summary, if any invariant is violated.  \
         Invariants are scoped to run segments: a $(b,run_start) event marks \
         where an experiment restarted its engine (fresh clock, fresh request \
         ids).";
      `P
        "A $(b,dsas-telemetry/1) snapshot stream (from $(b,run --telemetry)) \
         is recognized by its schema tag and checked structurally instead: \
         per producer, sequence numbers must be dense from 0 and timestamps \
         monotone.";
      `S "INVARIANTS";
    ]
    @ List.concat_map
        (fun i ->
          [ `I (Printf.sprintf "$(b,%s)" (Obs.Check.invariant_id i), Obs.Check.invariant_doc i) ])
        Obs.Check.all_invariants
  in
  let info = Cmd.info "check" ~doc ~man in
  let file_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"JSONL trace or telemetry file, one object per line; $(b,-) \
                 reads standard input.")
  in
  let list_flag =
    let doc = "List every invariant id with its description and exit." in
    Arg.(value & flag & info [ "list-invariants" ] ~doc)
  in
  let limit_arg =
    Arg.(value & opt int 50 & info [ "limit" ] ~docv:"N"
           ~doc:"Report at most $(docv) individual violations (totals are always exact).")
  in
  (* A telemetry stream announces itself in its first data line. *)
  let is_telemetry lines =
    match Obs.Artifact.data lines with
    | (_, first) :: _ ->
      Option.bind (Obs.Json.flat first) (fun fields ->
          Obs.Json.string (List.assoc_opt "schema" fields))
      = Some Obs.Telemetry.schema
    | [] -> false
  in
  let action file list_invariants limit json =
    if list_invariants then begin
      List.iter
        (fun i -> Printf.printf "%-12s %s\n" (Obs.Check.invariant_id i) (Obs.Check.invariant_doc i))
        Obs.Check.all_invariants;
      `Ok ()
    end
    else
      match file with
      | None -> `Error (true, "a trace FILE is required (or --list-invariants)")
      | Some file ->
        (match Obs.Artifact.read_lines file with
         | Error msg -> `Error (false, msg)
         | Ok lines when is_telemetry lines ->
           let label = lines.Obs.Artifact.label in
           (match Obs.Telemetry.parse_lines lines with
            | Error msg -> `Error (false, msg)
            | Ok snaps ->
              let problems = Obs.Telemetry.check snaps in
              if json then
                print_endline
                  (Obs.Json.to_string
                     (Obs.Json.Obj
                        [
                          ("schema", Obs.Json.String Obs.Telemetry.schema);
                          ("snapshots", Obs.Json.Int (List.length snaps));
                          ("problems", Obs.Json.Int (List.length problems));
                        ]))
              else begin
                Printf.printf "%s: %d telemetry snapshot(s)\n" label
                  (List.length snaps);
                List.iteri
                  (fun i p -> if i < limit then Printf.printf "  %s\n" p)
                  problems
              end;
              if problems = [] then `Ok ()
              else
                `Error
                  ( false,
                    Printf.sprintf "%s: %d telemetry stream problem(s)" label
                      (List.length problems) ))
         | Ok lines ->
           let label = lines.Obs.Artifact.label in
           let report = Obs.Check.check_lines ~limit lines in
           if json then print_endline (Obs.Check.to_json report)
           else Obs.Check.print report;
           if Obs.Check.ok report then `Ok ()
           else
             `Error
               ( false,
                 Printf.sprintf "%s: %d invariant violation(s): %s" label
                   (List.fold_left (fun acc (_, n) -> acc + n) 0 report.Obs.Check.counts)
                   (String.concat ", "
                      (List.map
                         (fun (i, n) ->
                           Printf.sprintf "%s x%d" (Obs.Check.invariant_id i) n)
                         report.Obs.Check.counts)) ))
  in
  Cmd.v info Term.(ret (const action $ file_arg $ list_flag $ limit_arg $ json_flag))

(* --- top: live view over a telemetry mirror ------------------------- *)

let top_cmd =
  let doc = "Monitor a live dsas-telemetry/1 snapshot stream (a `top` for runs)." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Tails the JSONL telemetry mirror written by $(b,run --telemetry) or \
         $(b,campaign run --telemetry) and shows, per producer (shard or \
         whole run), the latest snapshot: engine time, every counter with \
         its rate over the last cadence interval, every gauge.  Reading is \
         lenient — a torn final line from a run still writing is skipped, \
         unlike $(b,check) which is strict.";
      `S Manpage.s_examples;
      `Pre
        "  dsas_sim run x11_parallel --quick --telemetry t.jsonl &\n\
        \  dsas_sim top t.jsonl --follow";
    ]
  in
  let info = Cmd.info "top" ~doc ~man in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Telemetry JSONL file (dsas-telemetry/1 lines); $(b,-) reads \
                 standard input once.")
  in
  let follow_flag =
    Arg.(value & flag & info [ "follow"; "f" ]
           ~doc:"Keep re-reading the file and re-rendering every --interval \
                 seconds until interrupted.")
  in
  let interval_arg =
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SEC"
           ~doc:"Refresh period with --follow (default 2).")
  in
  (* Lenient load: parse what parses, skip the rest (the stream may
     still be growing under us). *)
  let load_lenient file = Obs.Artifact.lenient Obs.Telemetry.snapshot_of_json file in
  (* Group by producer tag, keeping the last two snapshots per producer
     for rate computation; producers render in first-appearance order. *)
  let producers snaps =
    let table = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun (sn : Obs.Telemetry.snapshot) ->
        let key = sn.Obs.Telemetry.sn_shard in
        (match Hashtbl.find_opt table key with
         | None ->
           order := key :: !order;
           Hashtbl.replace table key (None, sn)
         | Some (_, last) -> Hashtbl.replace table key (Some last, sn)))
      snaps;
    List.rev_map (fun key -> (key, Hashtbl.find table key)) !order
  in
  let rate prev (sn : Obs.Telemetry.snapshot) name value =
    match prev with
    | None -> None
    | Some (p : Obs.Telemetry.snapshot) ->
      let dt = sn.Obs.Telemetry.sn_t_us - p.Obs.Telemetry.sn_t_us in
      if dt <= 0 then None
      else
        let before =
          Option.value
            (List.assoc_opt name p.Obs.Telemetry.sn_counters)
            ~default:0
        in
        Some (float_of_int (value - before) /. float_of_int dt *. 1e6)
  in
  let producer_label = function
    | None -> "run"
    | Some s -> Printf.sprintf "shard %d" s
  in
  let render_text snaps =
    Printf.printf "%d snapshot(s), %d producer(s)\n" (List.length snaps)
      (List.length (producers snaps));
    List.iter
      (fun (key, (prev, (sn : Obs.Telemetry.snapshot))) ->
        Printf.printf "%-10s seq %-6d t %8.1f ms\n" (producer_label key)
          sn.Obs.Telemetry.sn_seq
          (float_of_int sn.Obs.Telemetry.sn_t_us /. 1000.);
        List.iter
          (fun (name, v) ->
            match rate prev sn name v with
            | Some r -> Printf.printf "  %-24s %10d  %12.0f/s\n" name v r
            | None -> Printf.printf "  %-24s %10d\n" name v)
          sn.Obs.Telemetry.sn_counters;
        List.iter
          (fun (name, v) -> Printf.printf "  %-24s %10.1f\n" name v)
          sn.Obs.Telemetry.sn_gauges)
      (producers snaps);
    flush stdout
  in
  let render_json snaps =
    let producer (key, (prev, (sn : Obs.Telemetry.snapshot))) =
      Obs.Json.Obj
        ((match key with Some s -> [ ("shard", Obs.Json.Int s) ] | None -> [])
         @ [
             ("seq", Obs.Json.Int sn.Obs.Telemetry.sn_seq);
             ("t_us", Obs.Json.Int sn.Obs.Telemetry.sn_t_us);
             ( "counters",
               Obs.Json.Obj
                 (List.map (fun (n, v) -> (n, Obs.Json.Int v)) sn.Obs.Telemetry.sn_counters) );
             ( "rates",
               Obs.Json.Obj
                 (List.filter_map
                    (fun (n, v) -> Option.map (fun r -> (n, Obs.Json.Float r)) (rate prev sn n v))
                    sn.Obs.Telemetry.sn_counters) );
             ( "gauges",
               Obs.Json.Obj
                 (List.map (fun (n, v) -> (n, Obs.Json.Float v)) sn.Obs.Telemetry.sn_gauges) );
           ])
    in
    print_endline
      (Obs.Json.to_string
         (Obs.Json.Obj
            [
              ("snapshots", Obs.Json.Int (List.length snaps));
              ("producers", Obs.Json.List (List.map producer (producers snaps)));
            ]));
    flush stdout
  in
  let action file follow interval json =
    if interval <= 0. then `Error (false, "--interval must be > 0")
    else if follow && file = "-" then
      `Error (false, "--follow re-reads a file; it cannot follow stdin")
    else if follow && json then
      `Error (false, "--follow is interactive; use one-shot --json and poll")
    else if not follow then begin
      match load_lenient file with
      | [] ->
        `Error
          (false, Printf.sprintf "%s: no parseable telemetry snapshots" file)
      | snaps ->
        if json then render_json snaps else render_text snaps;
        `Ok ()
    end
    else begin
      (* Follow mode: re-read and re-render until interrupted.  No
         cursor tricks — each tick prints a stanza, so the output also
         works piped to a log. *)
      while true do
        (match load_lenient file with
         | [] -> Printf.printf "(no snapshots yet)\n%!"
         | snaps -> render_text snaps);
        print_newline ();
        Unix.sleepf interval
      done;
      `Ok ()
    end
  in
  Cmd.v info
    Term.(ret (const action $ file_arg $ follow_flag $ interval_arg $ json_flag))

(* --- export: recorded artifacts to standard viewer formats ----------- *)

let export_cmd =
  let doc = "Export a recorded artifact to standard viewer formats." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Converts a recorded file to a format the usual tooling can open.  \
         $(b,--format chrome) renders a JSONL trace (from $(b,run --trace)) \
         as Chrome trace-event JSON — load it in Perfetto or \
         chrome://tracing; each run segment becomes a process, each shard a \
         thread, io start/done pairs async spans.  $(b,--format flamegraph) \
         renders folded stacks (from $(b,run --profile-out)) as a \
         self-contained SVG.  $(b,--format telemetry-csv) flattens a \
         dsas-telemetry/1 stream (from $(b,run --telemetry)) into one CSV \
         table for spreadsheets.";
      `S Manpage.s_examples;
      `Pre
        "  dsas_sim run x11_parallel --quick --trace t.jsonl\n\
        \  dsas_sim export t.jsonl --format chrome -o t.chrome.json\n\
        \  dsas_sim run fig3 --quick --profile-out p.folded\n\
        \  dsas_sim export p.folded --format flamegraph -o p.svg";
    ]
  in
  let info = Cmd.info "export" ~doc ~man in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Input file: a JSONL trace (chrome), folded stacks \
                 (flamegraph), or telemetry JSONL (telemetry-csv); $(b,-) \
                 reads standard input.")
  in
  let format_arg =
    let formats =
      [ ("chrome", `Chrome); ("flamegraph", `Flamegraph);
        ("telemetry-csv", `Telemetry_csv) ]
    in
    Arg.(required & opt (some (enum formats)) None & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: $(b,chrome), $(b,flamegraph), or \
                 $(b,telemetry-csv).")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"OUT"
           ~doc:"Write to $(docv) instead of standard output.")
  in
  let action file format out =
    let write text =
      match out with
      | None -> print_string text
      | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc
    in
    match format with
    | `Chrome ->
      (match Obs.Query.load file with
       | Error msg -> `Error (false, msg)
       | Ok q ->
         write (Obs.Export.chrome_of_events (Obs.Query.events q));
         `Ok ())
    | `Flamegraph ->
      (match Obs.Artifact.read_lines file with
       | Error msg -> `Error (false, msg)
       | Ok lines ->
         (match Obs.Export.flamegraph (String.concat "\n" lines.Obs.Artifact.lines) with
          | Error msg -> `Error (false, Printf.sprintf "%s: %s" lines.Obs.Artifact.label msg)
          | Ok svg ->
            write svg;
            `Ok ()))
    | `Telemetry_csv ->
      (match Obs.Telemetry.load file with
       | Error msg -> `Error (false, msg)
       | Ok snaps ->
         write (Obs.Export.telemetry_csv snaps);
         `Ok ())
  in
  Cmd.v info Term.(ret (const action $ file_arg $ format_arg $ out_arg))

let chaos_cmd =
  let doc = "Drive the engines under seeded random fault schedules (the chaos harness)." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the x9 resilience scenarios (demand paging under mirror and \
         surface recovery, swapper write-out mirroring, multiprogrammed \
         abort-and-restart under load control) for $(b,--runs) rounds, each \
         under a fresh fault schedule drawn from $(b,--seed).  Every round's \
         event stream is validated against the trace invariants; the command \
         exits non-zero if any invariant is violated.  The same seed always \
         reproduces the same schedules, so a failure can be replayed exactly.";
    ]
  in
  let info = Cmd.info "chaos" ~doc ~man in
  let runs_arg =
    Arg.(value & opt int 40 & info [ "runs" ] ~docv:"N" ~doc:"Chaos rounds to execute.")
  in
  let chaos_seed_arg =
    Arg.(value & opt int 0xC7A05 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Master seed for fault schedules and workloads.")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record the spliced multi-run event stream as JSON Lines into \
                 $(docv) (re-checkable offline with `dsas_sim check`).")
  in
  let domains_arg =
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
           ~doc:"Switch to multicore chaos: run the supervised sharded \
                 engines at execution width $(docv) under seeded shard-kill \
                 schedules (simulated domain crashes and stalls), instead of \
                 the device-fault scenarios.  Each round checks the recovered \
                 trace against the invariants and against a fault-free \
                 width-1 reference.")
  in
  let kill_shard_arg =
    Arg.(value & opt (some string) None & info [ "kill-shard" ] ~docv:"SPEC"
           ~doc:"With --domains: replace the drawn kill schedules with a \
                 fixed one, comma-separated $(b,S@P) pairs (kill shard \
                 $(b,S) after workload step $(b,P); repeats target \
                 successive attempts).")
  in
  let action quick runs seed trace_out domains kill_shard json =
    if runs < 1 then `Error (false, "--runs must be >= 1")
    else if domains = None && kill_shard <> None then
      `Error (false, "--kill-shard needs --domains (multicore chaos)")
    else match domains with
    | Some n when n < 1 || n > Parallel.Pool.available_domains () ->
      `Error
        ( false,
          Printf.sprintf "invalid --domains %d; this machine supports 1..%d"
            n (Parallel.Pool.available_domains ()) )
    | Some domains ->
      (* Multicore chaos: seeded shard-kill schedules through the
         supervised sharded engines. *)
      let kills =
        match kill_shard with
        | None -> Ok None
        | Some spec -> Result.map Option.some (Parallel.Supervisor.parse_kills spec)
      in
      (match kills with
       | Error msg -> `Error (false, msg)
       | Ok kills ->
         let scenarios = Experiments.Par_chaos.scenarios ~quick ~domains () in
         let oc = Option.map open_out trace_out in
         let trace = match oc with None -> Obs.Sink.null | Some oc -> Obs.Sink.jsonl oc in
         let summary =
           Fun.protect
             ~finally:(fun () ->
               Obs.Sink.flush trace;
               Option.iter close_out oc)
             (fun () ->
               Resilience.Chaos.run_sharded ~trace ?kills ~scenarios
                 ~shards:Experiments.Par_chaos.shards
                 ~steps:(Experiments.Par_chaos.steps ~quick) ~runs ~seed ())
         in
         let counter = Resilience.Chaos.sharded_counter summary in
         if json then begin
           let pair (k, v) = Printf.sprintf "%S:%d" k v in
           Printf.printf
             "{\"runs\":%d,\"seed\":%d,\"domains\":%d,\"events\":%d,\
              \"violations\":%d,\"totals\":{%s}}\n"
             runs seed domains summary.Resilience.Chaos.sr_total_events
             summary.Resilience.Chaos.sr_violations
             (String.concat ","
                (List.map pair summary.Resilience.Chaos.sr_totals))
         end
         else begin
           Printf.printf
             "multicore chaos: %d runs over %d scenarios, seed %d, domains %d\n"
             runs (List.length scenarios) seed domains;
           Printf.printf "events: %d, invariant violations: %d\n"
             summary.Resilience.Chaos.sr_total_events
             summary.Resilience.Chaos.sr_violations;
           print_endline "supervision totals:";
           List.iter
             (fun (k, v) -> Printf.printf "  %-20s %d\n" k v)
             summary.Resilience.Chaos.sr_totals
         end;
         let violated =
           List.filter
             (fun (r : Resilience.Chaos.sharded_result) ->
               not (Obs.Check.ok r.sr_check))
             summary.Resilience.Chaos.sr_runs
         in
         List.iter
           (fun (r : Resilience.Chaos.sharded_result) ->
             Printf.printf "run %d (%s): INVARIANT VIOLATIONS\n" r.sr_index
               r.sr_scenario;
             Obs.Check.print r.sr_check)
           violated;
         if violated <> [] then
           `Error
             ( false,
               Printf.sprintf
                 "%d of %d multicore chaos runs violated trace invariants \
                  (seed %d)"
                 (List.length violated) runs seed )
         else if counter "diverged" > 0 then
           `Error
             ( false,
               Printf.sprintf
                 "%d multicore chaos run(s) DIVERGED from the fault-free \
                  reference (seed %d)"
                 (counter "diverged") seed )
         else if counter "escalated" > 0 then
           `Error
             ( false,
               Printf.sprintf
                 "%d multicore chaos run(s) escalated past the restart \
                  budget (seed %d)"
                 (counter "escalated") seed )
         else `Ok ())
    | None -> begin
      let oc = Option.map open_out trace_out in
      let trace = match oc with None -> Obs.Sink.null | Some oc -> Obs.Sink.jsonl oc in
      let summary =
        Fun.protect
          ~finally:(fun () ->
            Obs.Sink.flush trace;
            Option.iter close_out oc)
          (fun () ->
            Resilience.Chaos.run ~trace
              ~scenarios:(Experiments.X9_resilience.scenarios ~quick ())
              ~runs ~seed ())
      in
      let violated =
        List.filter
          (fun (r : Resilience.Chaos.run_result) -> not (Obs.Check.ok r.check))
          summary.Resilience.Chaos.runs
      in
      if json then begin
        let counter (k, v) = Printf.sprintf "%S:%d" k v in
        Printf.printf
          "{\"runs\":%d,\"seed\":%d,\"events\":%d,\"violations\":%d,\"totals\":{%s}}\n"
          runs seed summary.Resilience.Chaos.total_events
          summary.Resilience.Chaos.violations
          (String.concat "," (List.map counter summary.Resilience.Chaos.totals))
      end
      else begin
        Printf.printf "chaos: %d runs over %d scenarios, seed %d\n" runs
          (List.length (Experiments.X9_resilience.scenarios ~quick ()))
          seed;
        Printf.printf "events: %d, invariant violations: %d\n"
          summary.Resilience.Chaos.total_events summary.Resilience.Chaos.violations;
        print_endline "recovery totals:";
        List.iter
          (fun (k, v) -> Printf.printf "  %-20s %d\n" k v)
          summary.Resilience.Chaos.totals
      end;
      match violated with
      | [] -> `Ok ()
      | vs ->
        List.iter
          (fun (r : Resilience.Chaos.run_result) ->
            Printf.printf "run %d (%s): INVARIANT VIOLATIONS\n" r.Resilience.Chaos.index
              r.Resilience.Chaos.scenario;
            Obs.Check.print r.Resilience.Chaos.check)
          vs;
        `Error
          ( false,
            Printf.sprintf "%d of %d chaos runs violated trace invariants (seed %d)"
              (List.length vs) runs seed )
    end
  in
  Cmd.v info
    Term.(
      ret
        (const action $ quick_flag $ runs_arg $ chaos_seed_arg $ trace_out_arg
         $ domains_arg $ kill_shard_arg $ json_flag))

(* --- campaign: sweep orchestration and cross-run analytics ----------- *)

let git_describe () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception _ -> None
  | ic ->
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    let (_ : Unix.process_status) = Unix.close_process_in ic in
    (match line with Some l when l <> "" -> Some l | _ -> None)

(* Runs in a forked child: build the cell's context (metrics registry,
   optional self-describing trace sink), run it, export the registry
   atomically as the cell's dsas-metrics/1 artifact. *)
let campaign_runner (cell : Experiments.Cell.spec) : Campaign.Exec.runner =
 fun ~point ~quick ~trace_path ~metrics_path ->
  let reg = Obs.Registry.create () in
  let ctx0 =
    {
      Experiments.Cell.params = point.Campaign.Spec.params;
      seed = point.Campaign.Spec.seed;
      quick;
      reg;
      obs = Obs.Sink.null;
    }
  in
  let oc = Option.map open_out trace_path in
  let obs =
    match oc with
    | None -> Obs.Sink.null
    | Some out ->
      Obs.Sink.segment ~seed:point.Campaign.Spec.seed
        ~config:(Experiments.Cell.config_summary ~cell:cell.Experiments.Cell.id ctx0)
        ~run:0 ~offset:0 (Obs.Sink.jsonl out)
  in
  let ctx = { ctx0 with Experiments.Cell.obs } in
  Experiments.Cell.stamp ~cell:cell.Experiments.Cell.id ctx;
  let result =
    Fun.protect
      ~finally:(fun () ->
        Obs.Sink.flush obs;
        Option.iter close_out oc)
      (fun () -> cell.Experiments.Cell.run ctx)
  in
  match result with
  | Error _ as e -> e
  | Ok () ->
    Obs.Artifact.write_atomic metrics_path (Obs.Registry.to_json reg ^ "\n");
    Ok ()

let campaign_dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
         ~doc:"Campaign directory.")

let campaign_run_cmd =
  let doc = "Execute a sweep spec into a campaign directory (resumable)." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Loads a $(b,dsas-campaign-spec/1) JSON file, expands its parameter \
         axes times its seed list into a grid of cells, and runs every cell \
         that is not already recorded as done in $(b,--dir)'s checkpoint log — \
         each in its own forked worker process, at most $(b,--jobs) at a time.  \
         A killed or $(b,--limit)-bounded run resumes from the checkpoint: \
         re-invoking with the same spec and directory recomputes nothing that \
         finished.  Pointing $(b,--dir) at a directory built from a different \
         grid is refused (the spec hash is pinned in the manifest).";
      `P
        "Each cell writes one $(b,dsas-metrics/1) artifact under \
         $(b,cells/); inspect the campaign with $(b,campaign status), \
         $(b,campaign report) and $(b,campaign diff).";
    ]
  in
  let info = Cmd.info "run" ~doc ~man in
  let spec_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC"
           ~doc:"Sweep spec (dsas-campaign-spec/1 JSON).")
  in
  let dir_arg =
    Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR"
           ~doc:"Campaign directory: created if absent, resumed if it already \
                 holds this spec.")
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Forked worker processes (default 1).")
  in
  let limit_arg =
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N"
           ~doc:"Run at most $(docv) pending cells, then stop (checkpointed; \
                 re-invoke to continue).")
  in
  let quiet_flag =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the per-cell progress lines.")
  in
  let timeout_arg =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SEC"
           ~doc:"Wall-clock limit per cell attempt; an overdue worker is \
                 killed and the cell recorded as timed out.")
  in
  let retries_arg =
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
           ~doc:"Failed-attempt budget per cell, counted across resumed \
                 invocations; a cell whose recorded attempts exhaust the \
                 budget is skipped on resume.  Default 0: never retry in-run \
                 (a later invocation re-attempts failures, as before).")
  in
  let backoff_arg =
    Arg.(value & opt float 0. & info [ "retry-backoff" ] ~docv:"SEC"
           ~doc:"Linear backoff between retries of one cell ($(docv) times \
                 the attempt count).")
  in
  let telemetry_arg =
    Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE"
           ~doc:"Append one dsas-telemetry/1 snapshot line to $(docv) as each \
                 cell settles (cells.done / cells.failed counters, elapsed \
                 and throughput gauges); watch the campaign live with \
                 `dsas_sim top $(docv) --follow`.  The parent process is the \
                 sole writer — the results store is untouched.")
  in
  let action spec_file dir jobs limit quiet timeout_s max_retries retry_backoff_s
      telemetry =
    if jobs < 1 then `Error (false, "--jobs must be >= 1")
    else if max_retries < 0 then `Error (false, "--retries must be >= 0")
    else if retry_backoff_s < 0. then `Error (false, "--retry-backoff must be >= 0")
    else if (match timeout_s with Some t -> t <= 0. | None -> false) then
      `Error (false, "--timeout must be > 0")
    else
      match Campaign.Spec.load spec_file with
      | Error msg -> `Error (false, msg)
      | Ok spec ->
        (match Experiments.Cells.find spec.Campaign.Spec.cell with
         | None ->
           `Error
             ( false,
               Printf.sprintf "spec names unknown cell %S; cells: %s"
                 spec.Campaign.Spec.cell
                 (String.concat ", " Experiments.Cells.ids) )
         | Some cell ->
           (* Catch axis typos before forking anything: every axis must be
              a parameter the cell understands. *)
           let known = List.map fst cell.Experiments.Cell.params in
           let bad =
             List.filter
               (fun (a : Campaign.Spec.axis) -> not (List.mem a.axis_name known))
               spec.Campaign.Spec.axes
           in
           (match bad with
            | a :: _ ->
              `Error
                ( false,
                  Printf.sprintf "cell %S has no parameter %S (it takes: %s)"
                    cell.Experiments.Cell.id a.Campaign.Spec.axis_name
                    (String.concat ", " known) )
            | [] ->
              (match Campaign.Store.init ~dir ~spec ~git:(git_describe ()) with
               | Error msg -> `Error (false, msg)
               | Ok () ->
                 (* The progress telemetry channel: the parent (sole
                    writer) appends one snapshot per settled cell, paced
                    externally via [capture] — the "engine time" is
                    wall-clock microseconds since the campaign started. *)
                 let tele_oc = Option.map open_out telemetry in
                 (* lint: allow L1 — campaign progress is paced in host time on purpose *)
                 let t0 = Unix.gettimeofday () in
                 let tele =
                   Option.map
                     (fun out ->
                       let chan = Obs.Telemetry.create ~every_us:1 () in
                       Obs.Telemetry.mirror chan out;
                       let reg = Obs.Registry.create () in
                       Obs.Registry.set_meta reg
                         [ ("campaign", spec.Campaign.Spec.name) ];
                       let c_done = Obs.Registry.counter reg "cells.done" in
                       let c_failed = Obs.Registry.counter reg "cells.failed" in
                       let g_elapsed = Obs.Registry.gauge reg "elapsed_s" in
                       let g_rate = Obs.Registry.gauge reg "cells_per_s" in
                       (chan, reg, c_done, c_failed, g_elapsed, g_rate))
                     tele_oc
                 in
                 let tele_tick st =
                   Option.iter
                     (fun (chan, reg, c_done, c_failed, g_elapsed, g_rate) ->
                       (match st with
                        | Campaign.Store.Done -> Obs.Registry.incr c_done
                        | Campaign.Store.Failed _ -> Obs.Registry.incr c_failed
                        | Campaign.Store.Pending -> ());
                       (* lint: allow L1 — campaign progress is paced in host time on purpose *)
                       let elapsed = Unix.gettimeofday () -. t0 in
                       Obs.Registry.set g_elapsed elapsed;
                       let settled =
                         Obs.Registry.counter_value c_done
                         + Obs.Registry.counter_value c_failed
                       in
                       Obs.Registry.set g_rate
                         (if elapsed > 0. then float_of_int settled /. elapsed
                          else 0.);
                       ignore
                         (Obs.Telemetry.capture chan
                            ~t_us:(int_of_float (elapsed *. 1e6))
                            reg))
                     tele
                 in
                 let on_cell (p : Campaign.Spec.point) st =
                   tele_tick st;
                   if not quiet then begin
                     (match st with
                      | Campaign.Store.Done -> Printf.printf "[done] %s\n" p.Campaign.Spec.id
                      | Campaign.Store.Failed f ->
                        Printf.printf "[FAIL] %s (attempt %d%s)\n       %s\n"
                          p.Campaign.Spec.id f.Campaign.Store.f_retries
                          (if f.Campaign.Store.f_timed_out then ", timed out" else "")
                          f.Campaign.Store.f_msg
                      | Campaign.Store.Pending -> ());
                     flush stdout
                   end
                 in
                 let o =
                   Fun.protect
                     ~finally:(fun () -> Option.iter close_out tele_oc)
                     (fun () ->
                       Campaign.Exec.run ~jobs ?limit ?timeout_s ~max_retries
                         ~retry_backoff_s ~on_cell ~dir ~spec
                         ~runner:(campaign_runner cell) ())
                 in
                 Printf.printf
                   "campaign %s: %d cell(s): %d already done, %d ran (%d ok, %d \
                    failed, %d timed out, %d retried)\n"
                   spec.Campaign.Spec.name o.Campaign.Exec.total o.Campaign.Exec.skipped
                   o.Campaign.Exec.ran o.Campaign.Exec.ok o.Campaign.Exec.failed
                   o.Campaign.Exec.timed_out o.Campaign.Exec.retried;
                 if o.Campaign.Exec.failed > 0 then
                   `Error
                     (false, Printf.sprintf "%d cell(s) failed" o.Campaign.Exec.failed)
                 else `Ok ())))
  in
  Cmd.v info
    Term.(
      ret
        (const action $ spec_arg $ dir_arg $ jobs_arg $ limit_arg $ quiet_flag
         $ timeout_arg $ retries_arg $ backoff_arg $ telemetry_arg))

let campaign_cells_cmd =
  let doc = "List the cell kinds a sweep spec can target, with their parameters." in
  let info = Cmd.info "cells" ~doc in
  let action () =
    List.iter
      (fun (c : Experiments.Cell.spec) ->
        Printf.printf "%-12s %s\n" c.Experiments.Cell.id c.Experiments.Cell.doc;
        List.iter
          (fun (p, d) -> Printf.printf "    %-14s %s\n" p d)
          c.Experiments.Cell.params)
      Experiments.Cells.all
  in
  Cmd.v info Term.(const action $ const ())

let campaign_status_cmd =
  let doc = "Show a campaign's checkpoint state: done, failed, pending cells." in
  let info = Cmd.info "status" ~doc in
  let action dir json =
    match Campaign.Store.load_spec ~dir with
    | Error msg -> `Error (false, msg)
    | Ok spec ->
      let sts = Campaign.Store.statuses ~dir spec in
      let count p = List.length (List.filter p sts) in
      let n_done = count (fun (_, s) -> s = Campaign.Store.Done) in
      let n_failed =
        count (fun (_, s) -> match s with Campaign.Store.Failed _ -> true | _ -> false)
      in
      let n_pending = count (fun (_, s) -> s = Campaign.Store.Pending) in
      (* Wall-clock bookkeeping from the log's "t" stamps.  A cell the
         log shows Pending but with an open attempt is running right
         now (or its worker died without a completion line). *)
      let timings = Campaign.Store.timings ~dir in
      (* lint: allow L1 — a running cell's elapsed time is host time on purpose *)
      let now = Unix.gettimeofday () in
      let timing id = List.assoc_opt id timings in
      let started id =
        match timing id with
        | Some { Campaign.Store.t_started = Some s; _ } -> Some s
        | _ -> None
      in
      let elapsed id st =
        match (timing id, st) with
        | Some { Campaign.Store.t_started = Some s; t_finished = Some f }, _ ->
          Some (f -. s)
        | ( Some { Campaign.Store.t_started = Some s; t_finished = None },
            Campaign.Store.Pending ) ->
          Some (now -. s)
        | _ -> None
      in
      let running id st =
        st = Campaign.Store.Pending
        &&
        match timing id with
        | Some { Campaign.Store.t_started = Some _; t_finished = None } -> true
        | _ -> false
      in
      if json then
        let cell ((p : Campaign.Spec.point), st) =
          let id = p.Campaign.Spec.id in
          let status =
            match st with
            | Campaign.Store.Done -> "done"
            | Campaign.Store.Failed _ -> "failed"
            | Campaign.Store.Pending ->
              if running id st then "running" else "pending"
          in
          Obs.Json.Obj
            ([ ("id", Obs.Json.String id); ("status", Obs.Json.String status) ]
             @ (match started id with Some s -> [ ("started", Obs.Json.Float s) ] | None -> [])
             @ match elapsed id st with Some e -> [ ("elapsed_s", Obs.Json.Float e) ] | None -> [])
        in
        print_endline
          (Obs.Json.to_string
             (Obs.Json.Obj
                [
                  ("name", Obs.Json.String spec.Campaign.Spec.name);
                  ("cell", Obs.Json.String spec.Campaign.Spec.cell);
                  ("total", Obs.Json.Int (List.length sts));
                  ("done", Obs.Json.Int n_done);
                  ("failed", Obs.Json.Int n_failed);
                  ("pending", Obs.Json.Int n_pending);
                  ("cells", Obs.Json.List (List.map cell sts));
                ]))
      else begin
        Printf.printf "campaign %s (cell %s): %d cell(s): %d done, %d failed, %d pending\n"
          spec.Campaign.Spec.name spec.Campaign.Spec.cell (List.length sts) n_done
          n_failed n_pending;
        List.iter
          (fun ((p : Campaign.Spec.point), s) ->
            let id = p.Campaign.Spec.id in
            match s with
            | Campaign.Store.Failed f ->
              Printf.printf "  FAIL %s (attempt %d%s%s): %s\n" id
                f.Campaign.Store.f_retries
                (if f.Campaign.Store.f_timed_out then ", timed out" else "")
                (match elapsed id s with
                 | Some e -> Printf.sprintf ", %.1fs" e
                 | None -> "")
                f.Campaign.Store.f_msg
            | Campaign.Store.Pending when running id s ->
              Printf.printf "  RUN  %s (%.1fs)\n" id
                (Option.value (elapsed id s) ~default:0.)
            | _ -> ())
          sts
      end;
      `Ok ()
  in
  Cmd.v info Term.(ret (const action $ campaign_dir_arg $ json_flag))

let campaign_report_cmd =
  let doc = "Cross-run analytics over a campaign: aggregates, winners, power-law fits." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Loads every done cell of a campaign directory and answers one \
         question per invocation.  With no options: an overview (grid shape, \
         completion, recorded metric names).  $(b,--metric M --by AXIS) \
         aggregates M across the grid grouped by AXIS.  Adding \
         $(b,--winner AXIS2) prints, for each value of AXIS, the AXIS2 value \
         with the best mean M (lowest, or highest with $(b,--max)) — the \
         crossover frontier.  $(b,--metric M --fit AXIS) fits \
         log10(agg(M)) against log10(AXIS) and prints the power-law exponent; \
         $(b,--golden FILE) checks the exponent against a committed \
         dsas-fit-golden/1 pin and exits non-zero on drift, and \
         $(b,--emit-golden TOL) prints a fresh golden for committing.";
      `S Manpage.s_examples;
      `Pre
        "  dsas_sim campaign report d --metric frag.external --by policy\n\
        \  dsas_sim campaign report d --metric frag.holes --by words --winner policy\n\
        \  dsas_sim campaign report d --metric frag.external --fit words --agg std \\\\\n\
        \      --golden campaigns/x10_fss_golden.json";
    ]
  in
  let info = Cmd.info "report" ~doc ~man in
  let metric_arg =
    Arg.(value & opt (some string) None & info [ "metric" ] ~docv:"METRIC"
           ~doc:"Metric name from the cells' dsas-metrics/1 artifacts (see the \
                 overview for what was recorded).")
  in
  let by_arg =
    Arg.(value & opt (some string) None & info [ "by" ] ~docv:"AXIS"
           ~doc:"Axis (or $(b,seed)) to group by.")
  in
  let winner_arg =
    Arg.(value & opt (some string) None & info [ "winner" ] ~docv:"AXIS"
           ~doc:"With --by: for each --by value, report this axis's best value.")
  in
  let max_flag =
    Arg.(value & flag & info [ "max" ]
           ~doc:"With --winner: higher metric wins (default: lower wins).")
  in
  let fit_arg =
    Arg.(value & opt (some string) None & info [ "fit" ] ~docv:"AXIS"
           ~doc:"Fit a power law of the metric against this numeric axis.")
  in
  let agg_arg =
    Arg.(value & opt string "mean" & info [ "agg" ] ~docv:"AGG"
           ~doc:"With --fit: aggregate within each axis value by $(b,mean) or \
                 across-seed $(b,std) before fitting.")
  in
  let golden_arg =
    Arg.(value & opt (some file) None & info [ "golden" ] ~docv:"FILE"
           ~doc:"With --fit: check the fitted exponent against this \
                 dsas-fit-golden/1 file; drift beyond its tolerance exits \
                 non-zero.")
  in
  let emit_golden_arg =
    Arg.(value & opt (some float) None & info [ "emit-golden" ] ~docv:"TOL"
           ~doc:"With --fit: print a dsas-fit-golden/1 pin of the fitted \
                 exponent with tolerance $(docv), for committing.")
  in
  let print_fit (f : Campaign.Report.fitted) =
    Printf.printf "fit: log10(%s(%s)) = %+.4f * log10(%s) %+.4f   (r^2 = %.4f)\n"
      (Campaign.Report.string_of_agg f.Campaign.Report.f_agg)
      f.Campaign.Report.f_metric f.Campaign.Report.fit.Metrics.Stats.slope
      f.Campaign.Report.f_x f.Campaign.Report.fit.Metrics.Stats.intercept
      f.Campaign.Report.fit.Metrics.Stats.r_square;
    List.iter
      (fun (x, y) -> Printf.printf "  %14g  %14g\n" x y)
      f.Campaign.Report.points
  in
  let fit_json (f : Campaign.Report.fitted) =
    Obs.Json.to_string
      (Obs.Json.Obj
         [
           ("metric", Obs.Json.String f.Campaign.Report.f_metric);
           ("x", Obs.Json.String f.Campaign.Report.f_x);
           ("agg", Obs.Json.String (Campaign.Report.string_of_agg f.Campaign.Report.f_agg));
           ("exponent", Obs.Json.Float f.Campaign.Report.fit.Metrics.Stats.slope);
           ("intercept", Obs.Json.Float f.Campaign.Report.fit.Metrics.Stats.intercept);
           ("r_square", Obs.Json.Float f.Campaign.Report.fit.Metrics.Stats.r_square);
           ( "points",
             Obs.Json.List
               (List.map
                  (fun (x, y) -> Obs.Json.List [ Obs.Json.Float x; Obs.Json.Float y ])
                  f.Campaign.Report.points) );
         ])
  in
  let action dir metric by winner maximize fit_x agg_s golden emit_golden json =
    match Campaign.Store.load ~dir with
    | Error msg -> `Error (false, msg)
    | Ok (spec, cells) ->
      (match (metric, fit_x, winner, by) with
       | None, None, None, None ->
         (* Overview: grid shape, completion, what was recorded. *)
         let n st = List.length (List.filter st cells) in
         let n_done =
           n (fun (c : Campaign.Store.loaded) -> c.Campaign.Store.status = Campaign.Store.Done)
         in
         let n_failed =
           n (fun (c : Campaign.Store.loaded) ->
               match c.Campaign.Store.status with
               | Campaign.Store.Failed _ -> true
               | _ -> false)
         in
         let metrics = Campaign.Report.metric_names cells in
         if json then
           print_endline
             (Obs.Json.to_string
                (Obs.Json.Obj
                   [
                     ("name", Obs.Json.String spec.Campaign.Spec.name);
                     ("cell", Obs.Json.String spec.Campaign.Spec.cell);
                     ("total", Obs.Json.Int (List.length cells));
                     ("done", Obs.Json.Int n_done);
                     ("failed", Obs.Json.Int n_failed);
                     ("metrics", Obs.Json.List (List.map (fun m -> Obs.Json.String m) metrics));
                   ]))
         else begin
           Printf.printf "campaign %s (cell %s): %d cell(s): %d done, %d failed\n"
             spec.Campaign.Spec.name spec.Campaign.Spec.cell (List.length cells)
             n_done n_failed;
           List.iter
             (fun (a : Campaign.Spec.axis) ->
               Printf.printf "  axis %-12s %s\n" a.Campaign.Spec.axis_name
                 (String.concat " " a.Campaign.Spec.values))
             spec.Campaign.Spec.axes;
           Printf.printf "  seeds %s\n"
             (String.concat " "
                (List.map string_of_int spec.Campaign.Spec.seeds));
           Printf.printf "  metrics: %s\n" (String.concat ", " metrics)
         end;
         `Ok ()
       | None, _, _, _ -> `Error (false, "--by/--winner/--fit need --metric METRIC")
       | Some _, Some _, Some _, _ | Some _, Some _, _, Some _ ->
         `Error (false, "--fit and --by/--winner are exclusive modes")
       | Some m, Some x, None, None ->
         (match Campaign.Report.agg_of_string agg_s with
          | Error e -> `Error (false, e)
          | Ok agg ->
            (match Campaign.Report.fit cells ~metric:m ~x ~agg with
             | Error e -> `Error (false, e)
             | Ok f ->
               (match emit_golden with
                | Some tolerance ->
                  print_endline
                    (Campaign.Report.golden_to_json
                       {
                         Campaign.Report.g_metric = m;
                         g_x = x;
                         g_agg = agg;
                         exponent = f.Campaign.Report.fit.Metrics.Stats.slope;
                         tolerance;
                       });
                  `Ok ()
                | None ->
                  if json then print_endline (fit_json f) else print_fit f;
                  (match golden with
                   | None -> `Ok ()
                   | Some gf ->
                     (match Campaign.Report.load_golden gf with
                      | Error e -> `Error (false, e)
                      | Ok g ->
                        (match Campaign.Report.check_golden g f with
                         | Ok () ->
                           if not json then
                             Printf.printf
                               "golden ok: exponent within %.4f of %+.4f\n"
                               g.Campaign.Report.tolerance
                               g.Campaign.Report.exponent;
                           `Ok ()
                         | Error e -> `Error (false, Printf.sprintf "%s: %s" gf e)))))))
       | Some m, None, Some contender, Some by ->
         (match Campaign.Report.winners cells ~metric:m ~by ~contender ~maximize with
          | Error e -> `Error (false, e)
          | Ok ws ->
            if json then
              print_endline
                (Obs.Json.to_string
                   (Obs.Json.Obj
                      (List.map
                         (fun (w : Campaign.Report.winner) ->
                           ( w.Campaign.Report.w_key,
                             Obs.Json.Obj
                               [
                                 ("winner", Obs.Json.String w.Campaign.Report.w_winner);
                                 ("value", Obs.Json.Float w.Campaign.Report.w_value);
                               ] ))
                         ws)))
            else begin
              Printf.printf "%-16s %-16s %s (%s mean)\n" by contender m
                (if maximize then "highest" else "lowest");
              List.iter
                (fun (w : Campaign.Report.winner) ->
                  Printf.printf "%-16s %-16s %g\n" w.Campaign.Report.w_key
                    w.Campaign.Report.w_winner w.Campaign.Report.w_value)
                ws
            end;
            `Ok ())
       | Some m, None, None, Some by ->
         (match Campaign.Report.aggregate cells ~metric:m ~by with
          | Error e -> `Error (false, e)
          | Ok groups ->
            if json then
              print_endline
                (Obs.Json.to_string
                   (Obs.Json.Obj
                      (List.map
                         (fun (g : Campaign.Report.group) ->
                           ( g.Campaign.Report.key,
                             Obs.Json.Obj
                               [
                                 ("count", Obs.Json.Int g.Campaign.Report.count);
                                 ("mean", Obs.Json.Float g.Campaign.Report.mean);
                                 ("stddev", Obs.Json.Float g.Campaign.Report.stddev);
                                 ("min", Obs.Json.Float g.Campaign.Report.g_min);
                                 ("max", Obs.Json.Float g.Campaign.Report.g_max);
                               ] ))
                         groups)))
            else begin
              Printf.printf "%-16s %6s %14s %14s %14s %14s\n" by "n" "mean" "stddev"
                "min" "max";
              List.iter
                (fun (g : Campaign.Report.group) ->
                  Printf.printf "%-16s %6d %14g %14g %14g %14g\n"
                    g.Campaign.Report.key g.Campaign.Report.count
                    g.Campaign.Report.mean g.Campaign.Report.stddev
                    g.Campaign.Report.g_min g.Campaign.Report.g_max)
                groups
            end;
            `Ok ())
       | Some _, None, Some _, None -> `Error (false, "--winner needs --by AXIS")
       | Some _, None, None, None ->
         `Error
           ( false,
             "--metric needs --by AXIS (aggregate), --by AXIS --winner AXIS2 \
              (crossover), or --fit AXIS (power law)" ))
  in
  Cmd.v info
    Term.(
      ret
        (const action $ campaign_dir_arg $ metric_arg $ by_arg $ winner_arg
         $ max_flag $ fit_arg $ agg_arg $ golden_arg $ emit_golden_arg $ json_flag))

let campaign_diff_cmd =
  let doc = "Compare two campaign directories; exit non-zero on metric drift." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Matches the done cells of two campaigns by grid-point id and every \
         recorded metric by name, and reports each metric whose value drifted \
         more than $(b,--threshold) percent in either direction (cells are \
         deterministic given their seed, so any drift is a behaviour change).  \
         Any such drift makes the command exit non-zero.  Cells or metrics \
         present on only one side are reported but are not failures.";
    ]
  in
  let info = Cmd.info "diff" ~doc ~man in
  let old_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD"
           ~doc:"Baseline campaign directory.")
  in
  let new_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW"
           ~doc:"New campaign directory.")
  in
  let threshold_arg =
    Arg.(value & opt float 0.5 & info [ "threshold" ] ~docv:"PCT"
           ~doc:"Drift threshold in percent (default 0.5; cells are \
                 deterministic, so even small drift is a real change).")
  in
  let action old_dir new_dir threshold json =
    if threshold < 0. then `Error (false, "--threshold must be >= 0")
    else
      match (Campaign.Store.load ~dir:old_dir, Campaign.Store.load ~dir:new_dir) with
      | Error msg, _ | _, Error msg -> `Error (false, msg)
      | Ok (_, old_cells), Ok (_, new_cells) ->
        let c =
          Campaign.Diff.compare_campaigns ~threshold_pct:threshold ~old_cells
            ~new_cells
        in
        if json then print_endline (Campaign.Diff.to_json c)
        else Campaign.Diff.print stdout c;
        (match Campaign.Diff.regressions c with
         | [] -> `Ok ()
         | regs ->
           `Error
             ( false,
               Printf.sprintf "%d metric(s) drifted more than %.2f%%"
                 (List.length regs) threshold ))
  in
  Cmd.v info
    Term.(ret (const action $ old_arg $ new_arg $ threshold_arg $ json_flag))

let campaign_cmd =
  let doc = "Sweep campaigns: run a declarative grid, report on it, diff two runs." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "A campaign is the cartesian product of parameter axes and seeds over \
         one cell kind (a parameterized simulation entry point — see \
         $(b,campaign cells)), executed into a directory of per-cell \
         dsas-metrics/1 artifacts with an append-only checkpoint log.  \
         Campaign directories are resumable, reportable and diffable; specs \
         live under $(b,campaigns/).";
    ]
  in
  let info = Cmd.info "campaign" ~doc ~man in
  Cmd.group info
    [ campaign_run_cmd; campaign_status_cmd; campaign_report_cmd;
      campaign_diff_cmd; campaign_cells_cmd ]

let main =
  let doc = "Dynamic storage allocation systems (Randell & Kuehner, 1967) — reproduction" in
  let info = Cmd.info "dsas_sim" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ list_cmd; run_cmd; replay_cmd; stats_cmd; query_cmd; check_cmd; top_cmd;
      export_cmd; chaos_cmd; campaign_cmd ]

let () = exit (Cmd.eval main)
