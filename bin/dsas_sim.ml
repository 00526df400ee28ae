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
   `dsas_sim export f.jsonl --format chrome`  Perfetto / flamegraph / CSV export

   Each subcommand's logic lives in the library that owns its data; an
   action here checks its flags against each other and calls it. *)

open Cmdliner

(* Actions return results: an [Error] is a usage error, exit 124 with
   its message. *)
let usage = function Ok () -> `Ok () | Error msg -> `Error (false, msg)

let ( let* ) = Result.bind

let fail_if cond msg = if cond then Error msg else Ok ()

let list_cmd =
  let doc = "List every experiment with its source in the paper." in
  let info = Cmd.info "list" ~doc in
  Cmd.v info Term.(const Experiments.Registry.print_list $ const ())

let quick_flag =
  let doc = "Run at reduced scale (smoke test)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let id_arg =
  let doc = "Experiment id from `dsas_sim list`, or `all`." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)

(* A wrong experiment id must fail loudly (non-zero exit) and say what
   would have worked. *)
let unknown_id id =
  Error
    (Printf.sprintf "unknown experiment %S; valid ids: %s (or `all`)" id
       (String.concat ", " Experiments.Registry.ids))

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
    usage
    @@
    let profiling = profile || profile_out <> None in
    let profiled f = Obs.Prof.around ~table:profile ~folded:profile_out f in
    let is name = String.lowercase_ascii id = name in
    let observed = trace_out <> None || metrics_out <> None || telemetry_out <> None in
    (* A bad --domains must fail loudly (non-zero exit) and say what
       would have worked, exactly like a bad experiment id. *)
    let max_domains = Parallel.Pool.available_domains () in
    let* () =
      match domains with
      | Some n when n < 1 || n > max_domains ->
        Error
          (Printf.sprintf
             "invalid --domains %d; this machine supports 1..%d \
              (Domain.recommended_domain_count)"
             n max_domains)
      | Some _ when not (is "x11_parallel") ->
        Error
          "--domains selects the x11_parallel execution width; use it with \
           `run x11_parallel`"
      | Some n when n > 1 && profiling ->
        Error "the profiler's span table is not domain-safe; profile at --domains 1"
      | _ -> Ok ()
    in
    let* kills = Option.fold ~none:(Ok []) ~some:Parallel.Supervisor.parse_kills kill_shard in
    let* () =
      fail_if
        (kills <> [] && not (is "x11_parallel"))
        "--kill-shard injects faults into the supervised x11_parallel run; use it \
         with `run x11_parallel`"
    in
    let* () = Experiments.X11_parallel.check_kills ~quick kills in
    let* () =
      fail_if (telemetry_every < 1) "--telemetry-every must be >= 1 (simulated microseconds)"
    in
    let* () =
      fail_if
        (watch <> [] && telemetry_out = None)
        "--watch evaluates rules over the telemetry stream; add --telemetry FILE"
    in
    (* Watchdog rules are parsed up front: a typo must fail before any
       simulation runs, not after.  So must an output path that cannot
       be written. *)
    let* rules = Obs.Watch.parse_all watch in
    let outputs =
      Obs.Artifact.writable
        (List.filter_map Fun.id [ trace_out; metrics_out; profile_out; telemetry_out ])
    in
    if device <> None || sched <> None || channels <> None then begin
      let* () =
        fail_if (not (is "x8_devices"))
          "--device/--io-sched/--channels select an x8_devices configuration; use \
           them with `run x8_devices`"
      in
      let* () =
        fail_if observed
          "--trace/--metrics-out/--telemetry do not apply to custom x8_devices runs"
      in
      let* () = outputs in
      profiled (fun () ->
          Experiments.X8_devices.run_custom ~quick
            ~device:(Option.value device ~default:"drum")
            ~sched:(Option.value sched ~default:"fifo")
            ~channels:(Option.value channels ~default:1) ())
    end
    else if is "all" then begin
      let* () =
        fail_if observed
          "--trace/--metrics-out/--telemetry need a single experiment, not `all`"
      in
      let* () = outputs in
      Ok (profiled (fun () -> Experiments.Registry.run_all ~quick ?seed ()))
    end
    else
      match Experiments.Registry.find id with
      | None -> unknown_id id
      | Some e when observed && not (Experiments.Registry.is_traced e.id) ->
        Error
          (Printf.sprintf "experiment %S does not emit events; traced ones: %s" id
             (String.concat ", " Experiments.Registry.traced))
      | Some e ->
        let* () = outputs in
        if observed then
          Experiments.Registry.run_observed e ~quick ~seed ~domains ~kills ~profiled
            ~trace:trace_out ~metrics:metrics_out ~telemetry:telemetry_out
            ~every_us:telemetry_every ~rules
        else
          profiled (fun () ->
              Experiments.Registry.run_entry e ~quick ~obs:Obs.Sink.null ~seed ~domains
                ~kills)
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
  let action file frames page_size policy json =
    usage
    @@
    if frames <= 0 then Error "--frames must be positive"
    else if page_size <= 0 then Error "--page-size must be positive"
    else
      Result.map
        (Paging.Lifetime.replay policy ~frames ~page_size ~json)
        (Workload.Trace_io.load_trace file)
  in
  Cmd.v info
    Term.(ret (const action $ trace_arg $ frames_arg $ page_arg $ policy_arg $ json_flag))

(* The trace that stats and query read. *)
let trace_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"JSONL trace file, one event object per line; $(b,-) reads \
               standard input.")

let stats_cmd =
  let doc = "Aggregate a recorded JSONL event stream (from `run --trace`)." in
  let info = Cmd.info "stats" ~doc in
  (* Strict reading via Query: an empty or truncated trace is an error
     (exit non-zero), never a silently empty summary. *)
  let action file json =
    usage
      (Result.map
         (fun stats ->
           if json then print_endline (Obs.Query.summary_to_json stats)
           else Obs.Query.print_summary stats)
         (Obs.Query.read_file (Obs.Query.summary ()) file))
  in
  Cmd.v info Term.(ret (const action $ trace_file_arg $ json_flag))

let query_cmd =
  let doc = "Query a recorded JSONL event stream: filter, group, pair, rank." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads a trace recorded by $(b,run --trace) and answers composable \
         questions about it.  Filters ($(b,--kinds), $(b,--run), \
         $(b,--since)/$(b,--until)) restrict the working set; then either \
         $(b,--pair) turns start/done event pairs into a latency distribution, \
         or $(b,--group-by) aggregates ($(b,--agg), $(b,--top)).  With neither, \
         prints the per-kind event counts of whatever survived the filters.";
      `P
        "Reading is strict, line by line: a missing, malformed, truncated, \
         or empty trace exits non-zero with a diagnostic.";
      `S Manpage.s_examples;
      `Pre
        "  dsas_sim query t.jsonl --pair io_start,io_done --percentiles\n\
        \  dsas_sim query t.jsonl --kinds fault,eviction --group-by run\n\
        \  dsas_sim query t.jsonl --group-by field:page --top 10";
    ]
  in
  let info = Cmd.info "query" ~doc ~man in
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
           ~doc:"With --pair: also print the p50/p90/p99 order statistics \
                 and the log-bucketed latency histogram.")
  in
  let action file kinds run since until group_by agg top pair percentiles json =
    usage
    @@
    let kinds = Option.map (String.split_on_char ',') kinds in
    let keep = Obs.Query.filter ?kinds ?run ?since_us:since ?until_us:until in
    match pair with
    | Some spec -> Obs.Query.report_pairs ~keep ~spec ~percentiles ~json file
    | None -> Obs.Query.report_groups ~keep ~key:group_by ~agg ~limit:top ~json file
  in
  Cmd.v info
    Term.(
      ret
        (const action $ trace_file_arg $ kinds_arg $ run_arg $ since_arg $ until_arg
         $ group_by_arg $ agg_arg $ top_arg $ pair_arg $ percentiles_flag $ json_flag))

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
  let action file list_invariants limit json =
    if list_invariants then begin
      Obs.Check.print_invariants ();
      `Ok ()
    end
    else
      match file with
      | None -> `Error (true, "a trace FILE is required (or --list-invariants)")
      | Some file -> usage (Obs.Check.report_file ~limit ~json file)
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
                 seconds until interrupted.  A file that does not exist yet \
                 is waited for; one that exists but cannot be read is an \
                 error.")
  in
  let interval_arg =
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SEC"
           ~doc:"Refresh period with --follow (default 2).")
  in
  let action file follow interval json =
    if interval <= 0. then `Error (false, "--interval must be > 0")
    else if follow && file = "-" then
      `Error (false, "--follow re-reads a file; it cannot follow stdin")
    else if follow && json then
      `Error (false, "--follow is interactive; use one-shot --json and poll")
    else if not follow then usage (Obs.Telemetry.top ~json file)
    else usage (Obs.Telemetry.follow ~interval ~sleep:Unix.sleepf file)
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
      `P
        "A Chrome export is written as the trace is read: on standard output \
         a damaged trace may already have printed the records before its bad \
         line (the exit status still fails); $(b,-o) replaces $(i,OUT) only \
         once the whole input was read.";
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
    Arg.(required & opt (some (enum Obs.Export.formats)) None & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: $(b,chrome), $(b,flamegraph), or \
                 $(b,telemetry-csv).")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"OUT"
           ~doc:"Write to $(docv) instead of standard output.")
  in
  let action file format out = usage (Obs.Export.export format ~out file) in
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
    usage
    @@
    let max_domains = Parallel.Pool.available_domains () in
    if runs < 1 then Error "--runs must be >= 1"
    else if domains = None && kill_shard <> None then
      Error "--kill-shard needs --domains (multicore chaos)"
    else
      match domains with
      | Some n when n < 1 || n > max_domains ->
        Error (Printf.sprintf "invalid --domains %d; this machine supports 1..%d" n max_domains)
      | _ ->
        let* kills =
          match kill_shard with
          | None -> Ok None
          | Some spec -> Result.map Option.some (Parallel.Supervisor.parse_kills spec)
        in
        let* () =
          Option.fold ~none:(Ok ()) ~some:(Experiments.Par_chaos.check_kills ~quick) kills
        in
        (* Device faults through the x9 scenarios, or, with --domains,
           shard kills through the supervised sharded engines. *)
        let scenarios =
          match domains with
          | None -> Experiments.X9_resilience.scenarios ~quick ()
          | Some domains -> Experiments.Par_chaos.scenarios ~quick ~domains ()
        in
        let* summary =
          Obs.Artifact.with_jsonl trace_out (fun trace ->
              Ok (Resilience.Chaos.run ~trace ?kills ~scenarios ~runs ~seed ()))
        in
        Resilience.Chaos.report ~json ~domains summary
  in
  Cmd.v info
    Term.(
      ret
        (const action $ quick_flag $ runs_arg $ chaos_seed_arg $ trace_out_arg
         $ domains_arg $ kill_shard_arg $ json_flag))

(* --- campaign: sweep orchestration and cross-run analytics ----------- *)

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
    usage
    @@
    if jobs < 1 then Error "--jobs must be >= 1"
    else if max_retries < 0 then Error "--retries must be >= 0"
    else if retry_backoff_s < 0. then Error "--retry-backoff must be >= 0"
    else if (match timeout_s with Some t -> t <= 0. | None -> false) then
      Error "--timeout must be > 0"
    else
      let* spec = Campaign.Spec.load spec_file in
      let* cell = Experiments.Cells.for_spec spec in
      (* The mirror opens before the directory is created: an
         unwritable --telemetry leaves nothing behind. *)
      Obs.Artifact.with_out telemetry (fun mirror ->
          let* () = Campaign.Store.init ~dir ~spec ~git:(Campaign.Store.git_describe ()) in
          Campaign.Exec.report spec
            (Campaign.Exec.run ~jobs ?limit ?timeout_s ~max_retries ~retry_backoff_s
               ~on_cell:(Campaign.Exec.progress ~quiet spec mirror)
               ~dir ~spec ~runner:(Experiments.Cells.runner cell) ()))
  in
  Cmd.v info
    Term.(
      ret
        (const action $ spec_arg $ dir_arg $ jobs_arg $ limit_arg $ quiet_flag
         $ timeout_arg $ retries_arg $ backoff_arg $ telemetry_arg))

let campaign_cells_cmd =
  let doc = "List the cell kinds a sweep spec can target, with their parameters." in
  let info = Cmd.info "cells" ~doc in
  Cmd.v info Term.(const Experiments.Cells.print_list $ const ())

let campaign_status_cmd =
  let doc = "Show a campaign's checkpoint state: done, failed, pending cells." in
  let info = Cmd.info "status" ~doc in
  let action dir json =
    usage (Result.map (Campaign.Store.print_status ~json ~dir) (Campaign.Store.load_spec ~dir))
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
  let action dir metric by winner maximize fit_x agg golden emit_golden json =
    usage
    @@
    let* spec, cells = Campaign.Store.load ~dir in
    match (metric, fit_x, winner, by) with
    | None, None, None, None -> Ok (Campaign.Report.print_overview ~json spec cells)
    | None, _, _, _ -> Error "--by/--winner/--fit need --metric METRIC"
    | Some _, Some _, Some _, _ | Some _, Some _, _, Some _ ->
      Error "--fit and --by/--winner are exclusive modes"
    | Some metric, Some x, None, None ->
      Campaign.Report.report_fit ~json cells ~metric ~x ~agg ~golden ~emit_golden
    | Some metric, None, Some contender, Some by ->
      Campaign.Report.report_winners ~json cells ~metric ~by ~contender ~maximize
    | Some metric, None, None, Some by -> Campaign.Report.report_groups ~json cells ~metric ~by
    | Some _, None, Some _, None -> Error "--winner needs --by AXIS"
    | Some _, None, None, None ->
      Error
        "--metric needs --by AXIS (aggregate), --by AXIS --winner AXIS2 (crossover), \
         or --fit AXIS (power law)"
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
    usage
    @@
    if threshold < 0. then Error "--threshold must be >= 0"
    else
      let* _, old_cells = Campaign.Store.load ~dir:old_dir in
      let* _, new_cells = Campaign.Store.load ~dir:new_dir in
      Campaign.Diff.report ~json
        (Campaign.Diff.compare_campaigns ~threshold_pct:threshold ~old_cells ~new_cells)
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
