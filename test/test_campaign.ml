(* Tests for the campaign layer: sweep specs (parsing, validation, grid
   expansion, config hashing), the on-disk store (append-only
   checkpoint log, torn-line tolerance, resume identity), the forked
   executor (fan-out, failure capture, limit + resume without
   recomputation), cross-run reports (aggregation, winners, power-law
   fits, goldens) and the campaign differ (drift detection, committed
   fixtures). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let resolve candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "none of %s exists" (String.concat ", " candidates)

let fixture_dir name = resolve [ "fixtures/" ^ name; "test/fixtures/" ^ name ]

let temp_dir () =
  let path = Filename.temp_file "dsas_campaign" "" in
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

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let near ?(eps = 1e-9) a b = abs_float (a -. b) < eps

(* --- spec ------------------------------------------------------------ *)

let spec_json =
  {|{"schema":"dsas-campaign-spec/1","name":"t","cell":"fss","seeds":[0,1],
     "quick":true,"trace_every":3,
     "axes":[{"name":"p","values":["a","b"]},{"name":"w","values":[1,2]}]}|}

let parse_spec json =
  match Campaign.Spec.of_json json with
  | Ok s -> s
  | Error msg -> Alcotest.failf "spec did not parse: %s" msg

let test_spec_parse () =
  let s = parse_spec spec_json in
  check_string "name" "t" s.Campaign.Spec.name;
  check_string "cell" "fss" s.Campaign.Spec.cell;
  check_bool "seeds" true (s.Campaign.Spec.seeds = [ 0; 1 ]);
  check_bool "quick" true s.Campaign.Spec.quick;
  check_int "trace_every" 3 s.Campaign.Spec.trace_every;
  check_int "axes" 2 (List.length s.Campaign.Spec.axes);
  (* numeric axis values are stringified *)
  check_bool "numeric values" true
    ((List.nth s.Campaign.Spec.axes 1).Campaign.Spec.values = [ "1"; "2" ])

let test_spec_defaults () =
  let s =
    parse_spec {|{"schema":"dsas-campaign-spec/1","name":"d","cell":"fss"}|}
  in
  check_bool "seeds default [0]" true (s.Campaign.Spec.seeds = [ 0 ]);
  check_bool "quick default false" true (not s.Campaign.Spec.quick);
  check_int "trace_every default 0" 0 s.Campaign.Spec.trace_every;
  check_bool "axes default empty" true (s.Campaign.Spec.axes = []);
  (* one point per seed even with no axes *)
  check_int "single point" 1 (List.length (Campaign.Spec.points s))

let test_spec_rejects () =
  let rejects ~why json =
    match Campaign.Spec.of_json json with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" why
  in
  rejects ~why:"wrong schema" {|{"schema":"other/1","name":"t","cell":"c"}|};
  rejects ~why:"reserved seed axis"
    {|{"schema":"dsas-campaign-spec/1","name":"t","cell":"c",
       "axes":[{"name":"seed","values":[1]}]}|};
  rejects ~why:"duplicate axes"
    {|{"schema":"dsas-campaign-spec/1","name":"t","cell":"c",
       "axes":[{"name":"p","values":["a"]},{"name":"p","values":["b"]}]}|};
  rejects ~why:"empty axis values"
    {|{"schema":"dsas-campaign-spec/1","name":"t","cell":"c",
       "axes":[{"name":"p","values":[]}]}|};
  rejects ~why:"token with a space"
    {|{"schema":"dsas-campaign-spec/1","name":"t","cell":"c",
       "axes":[{"name":"p","values":["a b"]}]}|};
  rejects ~why:"empty seeds"
    {|{"schema":"dsas-campaign-spec/1","name":"t","cell":"c","seeds":[]}|}

(* JSON numbers are doubles and a spec's integers must be exact; a
   misspelt boolean must not silently read as false. *)
let test_spec_rejects_inexact () =
  let spec fields =
    Printf.sprintf {|{"schema":"dsas-campaign-spec/1","name":"t","cell":"fss",%s}|} fields
  in
  let rejects ~why fields =
    match Campaign.Spec.of_json (spec fields) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" why
  in
  rejects ~why:"fractional seed" {|"seeds":[1.5]|};
  rejects ~why:"seed beyond 2^53" {|"seeds":[0,1e300]|};
  rejects ~why:"fractional trace_every" {|"trace_every":2.5|};
  rejects ~why:"trace_every beyond 2^53" {|"trace_every":1e20|};
  rejects ~why:"string trace_every" {|"trace_every":"3"|};
  rejects ~why:"string quick" {|"quick":"yes"|};
  rejects ~why:"numeric quick" {|"quick":1|};
  let s = parse_spec (spec {|"seeds":[-3,9007199254740992],"quick":false|}) in
  check_bool "exact integers up to 2^53 kept" true
    (s.Campaign.Spec.seeds = [ -3; 1 lsl 53 ])

(* A float parameter must be finite: NaN fails every range check, so a
   "nan" error probability used to run as a fault-free cell. *)
let test_cell_rejects_non_finite () =
  let ctx value =
    {
      Experiments.Cell.params = [ ("error_prob", value) ];
      seed = 0;
      quick = true;
      reg = Obs.Registry.create ();
      obs = Obs.Sink.null;
    }
  in
  List.iter
    (fun v ->
      check_bool (v ^ " rejected") true
        (Result.is_error (Experiments.Cell.get_float (ctx v) "error_prob" ~default:0.)))
    [ "nan"; "inf"; "-inf"; "1e400" ];
  check_bool "finite accepted" true
    (Experiments.Cell.get_float (ctx "0.25") "error_prob" ~default:0. = Ok 0.25);
  match Experiments.Cells.find "resilience" with
  | None -> Alcotest.fail "no resilience cell"
  | Some cell ->
    check_bool "resilience cell fails on nan" true
      (Result.is_error (cell.Experiments.Cell.run (ctx "nan")))

let test_spec_points () =
  let s = parse_spec spec_json in
  let points = Campaign.Spec.points s in
  check_int "2 x 2 axes x 2 seeds" 8 (List.length points);
  (* axes outer to inner, seeds innermost; ids are deterministic *)
  check_bool "grid order" true
    (List.map (fun (p : Campaign.Spec.point) -> p.Campaign.Spec.id) points
    = [
        "p=a,w=1,seed=0"; "p=a,w=1,seed=1"; "p=a,w=2,seed=0"; "p=a,w=2,seed=1";
        "p=b,w=1,seed=0"; "p=b,w=1,seed=1"; "p=b,w=2,seed=0"; "p=b,w=2,seed=1";
      ]);
  let first = List.hd points in
  check_bool "params in axis order" true
    (first.Campaign.Spec.params = [ ("p", "a"); ("w", "1") ]);
  (* trace_every=3 marks grid points 0, 3, 6 *)
  check_bool "sampled tracing" true
    (List.map (fun (p : Campaign.Spec.point) -> p.Campaign.Spec.traced) points
    = [ true; false; false; true; false; false; true; false ])

let test_spec_hash () =
  let s = parse_spec spec_json in
  let same = parse_spec spec_json in
  check_string "hash is stable" (Campaign.Spec.config_hash s)
    (Campaign.Spec.config_hash same);
  let widened =
    parse_spec
      {|{"schema":"dsas-campaign-spec/1","name":"t","cell":"fss","seeds":[0,1],
         "quick":true,"trace_every":3,
         "axes":[{"name":"p","values":["a","b","c"]},{"name":"w","values":[1,2]}]}|}
  in
  check_bool "hash re-keys on any grid change" true
    (Campaign.Spec.config_hash s <> Campaign.Spec.config_hash widened)

(* The hash digests Spec.to_json's bytes, so it pins the encoder: a
   committed campaign directory must still resume. *)
let test_spec_hash_matches_committed_manifest () =
  let dir = fixture_dir "campaign_base" in
  match Campaign.Store.load_spec ~dir with
  | Error msg -> Alcotest.failf "fixture spec unreadable: %s" msg
  | Ok spec ->
    let manifest =
      In_channel.with_open_bin (Campaign.Store.manifest_path dir) In_channel.input_all
    in
    check_string "config_hash of the committed spec" "2df15939b79bf0937282345ed00ed519"
      (Campaign.Spec.config_hash spec);
    check_bool "equals the committed manifest's" true
      (Option.bind (Obs.Json.parse manifest) (fun m ->
           Obs.Json.string (Obs.Json.member "config_hash" m))
      = Some (Campaign.Spec.config_hash spec))

(* --- store ----------------------------------------------------------- *)

let small_spec =
  parse_spec
    {|{"schema":"dsas-campaign-spec/1","name":"t","cell":"synthetic","seeds":[0,1],
       "quick":true,"axes":[{"name":"p","values":["a","b"]}]}|}

let init_ok ~dir spec =
  match Campaign.Store.init ~dir ~spec ~git:None with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "init failed: %s" msg

let test_store_log_replay () =
  with_temp_dir (fun dir ->
      init_ok ~dir small_spec;
      let all = Campaign.Store.statuses ~dir small_spec in
      check_int "full grid listed" 4 (List.length all);
      check_bool "everything pending" true
        (List.for_all (fun (_, st) -> st = Campaign.Store.Pending) all);
      (* last line per cell wins *)
      Campaign.Store.record ~dir "p=a,seed=0" (Campaign.Store.failed "boom");
      Campaign.Store.record ~dir "p=a,seed=0" Campaign.Store.Done;
      Campaign.Store.record ~dir "p=b,seed=1" (Campaign.Store.failed "late");
      (* a torn final line (the kill case) and garbage are skipped *)
      let oc =
        open_out_gen
          [ Open_append; Open_creat; Open_binary ]
          0o644
          (Campaign.Store.log_path dir)
      in
      output_string oc "{\"cell\":\"p=b,seed=0\",\"sta";
      close_out oc;
      let sts = Campaign.Store.statuses ~dir small_spec in
      let st id = List.assoc id (List.map (fun ((p : Campaign.Spec.point), s) -> (p.Campaign.Spec.id, s)) sts) in
      check_bool "retry then done: done wins" true (st "p=a,seed=0" = Campaign.Store.Done);
      check_bool "failed carries its message" true
        (st "p=b,seed=1" = Campaign.Store.failed "late");
      check_bool "torn line ignored" true (st "p=b,seed=0" = Campaign.Store.Pending))

let test_store_resume_identity () =
  with_temp_dir (fun dir ->
      init_ok ~dir small_spec;
      (* same grid: resume is a no-op *)
      (match Campaign.Store.init ~dir ~spec:small_spec ~git:None with
       | Ok () -> ()
       | Error msg -> Alcotest.failf "same-spec resume refused: %s" msg);
      (* different grid: refused *)
      let other =
        parse_spec
          {|{"schema":"dsas-campaign-spec/1","name":"t","cell":"synthetic",
             "seeds":[0,1],"quick":true,"axes":[{"name":"p","values":["a"]}]}|}
      in
      match Campaign.Store.init ~dir ~spec:other ~git:None with
      | Ok () -> Alcotest.fail "different grid accepted into the same directory"
      | Error msg ->
        check_bool ("mentions the conflict: " ^ msg) true
          (contains_substring msg "different grid"))

let write_metrics ~score path =
  let reg = Obs.Registry.create () in
  Obs.Registry.set (Obs.Registry.gauge reg "score") score;
  Obs.Registry.incr (Obs.Registry.counter reg "runs");
  Obs.Artifact.write_atomic path (Obs.Registry.to_json reg ^ "\n")

let test_store_load_flattens () =
  with_temp_dir (fun dir ->
      init_ok ~dir small_spec;
      let reg = Obs.Registry.create () in
      Obs.Registry.incr ~by:3 (Obs.Registry.counter reg "c");
      Obs.Registry.set (Obs.Registry.gauge reg "g") 2.5;
      Metrics.Stats.add (Obs.Registry.stats reg "s") 4.;
      Metrics.Stats.add (Obs.Registry.stats reg "s") 6.;
      let h =
        Obs.Registry.histogram reg "h" ~default:(fun () ->
            Metrics.Histogram.log2 ~max_exponent:10)
      in
      Metrics.Histogram.add h 5;
      let path = Campaign.Store.metrics_path ~dir "p=a,seed=0" in
      Obs.Artifact.write_atomic path (Obs.Registry.to_json reg ^ "\n");
      Campaign.Store.record ~dir "p=a,seed=0" Campaign.Store.Done;
      match Campaign.Store.load ~dir with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok (_, cells) ->
        let cell =
          List.find
            (fun (c : Campaign.Store.loaded) ->
              c.Campaign.Store.point.Campaign.Spec.id = "p=a,seed=0")
            cells
        in
        let m = cell.Campaign.Store.metrics in
        check_bool "counter flattened" true (List.assoc_opt "c" m = Some 3.);
        check_bool "gauge flattened" true (List.assoc_opt "g" m = Some 2.5);
        check_bool "stats mean flattened" true (List.assoc_opt "s.mean" m = Some 5.);
        check_bool "stats count flattened" true (List.assoc_opt "s.count" m = Some 2.);
        check_bool "histogram count flattened" true
          (List.assoc_opt "h.count" m = Some 1.);
        (* pending cells carry no metrics *)
        check_int "only the done cell has metrics" 1
          (List.length
             (List.filter
                (fun (c : Campaign.Store.loaded) -> c.Campaign.Store.metrics <> [])
                cells)))

let test_store_load_strict () =
  with_temp_dir (fun dir ->
      init_ok ~dir small_spec;
      (* claim done without writing the artifact: load must refuse *)
      Campaign.Store.record ~dir "p=a,seed=0" Campaign.Store.Done;
      (match Campaign.Store.load ~dir with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "missing artifact for a done cell loaded");
      (* a wrong-schema artifact is also refused *)
      Obs.Artifact.write_atomic
        (Campaign.Store.metrics_path ~dir "p=a,seed=0")
        {|{"schema":"other/1"}|};
      match Campaign.Store.load ~dir with
      | Error msg ->
        check_bool ("mentions schema: " ^ msg) true (contains_substring msg "schema")
      | Ok _ -> Alcotest.fail "wrong-schema artifact loaded")

let test_store_timings_replay () =
  with_temp_dir (fun dir ->
      init_ok ~dir small_spec;
      (* an attempt: running at t=100, done at t=103.5 *)
      Campaign.Store.record_start ~dir ~t:100. "p=a,seed=0";
      Campaign.Store.record ~t:103.5 ~dir "p=a,seed=0" Campaign.Store.Done;
      (* a failed attempt retried: the last spawn wins *)
      Campaign.Store.record_start ~dir ~t:100. "p=a,seed=1";
      Campaign.Store.record ~t:101. ~dir "p=a,seed=1" (Campaign.Store.failed "boom");
      Campaign.Store.record_start ~dir ~t:110. "p=a,seed=1";
      (* an open attempt: running, never finished *)
      Campaign.Store.record_start ~dir ~t:120. "p=b,seed=0";
      let timings = Campaign.Store.timings ~dir in
      let timing id = List.assoc id timings in
      check_bool "closed attempt carries both stamps" true
        (timing "p=a,seed=0"
        = { Campaign.Store.t_started = Some 100.; t_finished = Some 103.5 });
      check_bool "a new spawn clears the earlier finish" true
        (timing "p=a,seed=1"
        = { Campaign.Store.t_started = Some 110.; t_finished = None });
      check_bool "open attempt has no finish" true
        (timing "p=b,seed=0"
        = { Campaign.Store.t_started = Some 120.; t_finished = None });
      check_bool "never-mentioned cells absent" true
        (List.assoc_opt "p=b,seed=1" timings = None);
      (* first-mention order, and running lines replay as Pending *)
      check_bool "first-mention order" true
        (List.map fst timings = [ "p=a,seed=0"; "p=a,seed=1"; "p=b,seed=0" ]);
      let sts = Campaign.Store.statuses ~dir small_spec in
      let st id =
        List.assoc id
          (List.map (fun ((p : Campaign.Spec.point), s) -> (p.Campaign.Spec.id, s)) sts)
      in
      check_bool "running replays as pending (resume unchanged)" true
        (st "p=b,seed=0" = Campaign.Store.Pending);
      check_bool "respawned cell replays as pending again" true
        (st "p=a,seed=1" = Campaign.Store.Pending))

(* --- executor -------------------------------------------------------- *)

let scoring_runner ~score : Campaign.Exec.runner =
 fun ~point:_ ~quick:_ ~trace_path:_ ~metrics_path ->
  write_metrics ~score metrics_path;
  Ok ()

let run_exec ?jobs ?limit ~dir ~spec runner =
  Campaign.Exec.run ?jobs ?limit ~dir ~spec ~runner ()

let test_exec_stamps_timings () =
  with_temp_dir (fun dir ->
      init_ok ~dir small_spec;
      let _ = run_exec ~jobs:2 ~dir ~spec:small_spec (scoring_runner ~score:1.) in
      let timings = Campaign.Store.timings ~dir in
      check_int "every cell timed" 4 (List.length timings);
      List.iter
        (fun (id, (tm : Campaign.Store.timing)) ->
          match (tm.Campaign.Store.t_started, tm.Campaign.Store.t_finished) with
          | Some s, Some f ->
            check_bool (id ^ ": finish not before start") true (f >= s)
          | _ -> Alcotest.failf "%s: executor left a stamp out" id)
        timings)

let test_exec_runs_grid () =
  with_temp_dir (fun dir ->
      init_ok ~dir small_spec;
      let o = run_exec ~jobs:2 ~dir ~spec:small_spec (scoring_runner ~score:1.) in
      check_int "total" 4 o.Campaign.Exec.total;
      check_int "skipped" 0 o.Campaign.Exec.skipped;
      check_int "ran" 4 o.Campaign.Exec.ran;
      check_int "ok" 4 o.Campaign.Exec.ok;
      check_int "failed" 0 o.Campaign.Exec.failed;
      match Campaign.Store.load ~dir with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok (_, cells) ->
        check_bool "every cell done with its artifact" true
          (List.for_all
             (fun (c : Campaign.Store.loaded) ->
               c.Campaign.Store.status = Campaign.Store.Done
               && List.assoc_opt "score" c.Campaign.Store.metrics = Some 1.)
             cells))

let test_exec_failure_capture_and_retry () =
  with_temp_dir (fun dir ->
      init_ok ~dir small_spec;
      (* p=b cells fail with a diagnostic; p=a cells succeed *)
      let flaky : Campaign.Exec.runner =
       fun ~point ~quick:_ ~trace_path:_ ~metrics_path ->
        if List.assoc_opt "p" point.Campaign.Spec.params = Some "b" then
          Error ("synthetic failure in " ^ point.Campaign.Spec.id)
        else begin
          write_metrics ~score:1. metrics_path;
          Ok ()
        end
      in
      let o = run_exec ~jobs:2 ~dir ~spec:small_spec flaky in
      check_int "two ok" 2 o.Campaign.Exec.ok;
      check_int "two failed" 2 o.Campaign.Exec.failed;
      let sts = Campaign.Store.statuses ~dir small_spec in
      let failures =
        List.filter_map
          (fun ((p : Campaign.Spec.point), st) ->
            match st with
            | Campaign.Store.Failed f -> Some (p.Campaign.Spec.id, f.Campaign.Store.f_msg)
            | _ -> None)
          sts
      in
      check_int "failures recorded" 2 (List.length failures);
      check_bool "diagnostic captured from the child" true
        (List.for_all
           (fun (id, msg) -> contains_substring msg ("synthetic failure in " ^ id))
           failures);
      (* a second run retries only the failed cells *)
      let o2 = run_exec ~dir ~spec:small_spec (scoring_runner ~score:2.) in
      check_int "done cells skipped" 2 o2.Campaign.Exec.skipped;
      check_int "failed cells retried" 2 o2.Campaign.Exec.ran;
      check_int "retries succeed" 2 o2.Campaign.Exec.ok)

let test_exec_exception_is_a_failed_cell () =
  with_temp_dir (fun dir ->
      init_ok ~dir small_spec;
      let throwing : Campaign.Exec.runner =
       fun ~point:_ ~quick:_ ~trace_path:_ ~metrics_path:_ ->
        invalid_arg "exploded"
      in
      let o = run_exec ~limit:1 ~dir ~spec:small_spec throwing in
      check_int "one cell attempted" 1 o.Campaign.Exec.ran;
      check_int "recorded as failed, not crashed" 1 o.Campaign.Exec.failed;
      let sts = Campaign.Store.statuses ~dir small_spec in
      check_bool "exception text captured" true
        (List.exists
           (fun (_, st) ->
             match st with
             | Campaign.Store.Failed f ->
               contains_substring f.Campaign.Store.f_msg "exploded"
             | _ -> false)
           sts))

let test_exec_timeout_kills_hung_cell () =
  with_temp_dir (fun dir ->
      init_ok ~dir small_spec;
      (* p=b cells hang far past the limit; p=a cells are instant *)
      let sleepy : Campaign.Exec.runner =
       fun ~point ~quick:_ ~trace_path:_ ~metrics_path ->
        if List.assoc_opt "p" point.Campaign.Spec.params = Some "b" then begin
          Unix.sleep 30;
          Ok ()
        end
        else begin
          write_metrics ~score:1. metrics_path;
          Ok ()
        end
      in
      let o =
        Campaign.Exec.run ~jobs:2 ~timeout_s:0.3 ~dir ~spec:small_spec
          ~runner:sleepy ()
      in
      check_int "fast cells ok" 2 o.Campaign.Exec.ok;
      check_int "hung cells failed" 2 o.Campaign.Exec.failed;
      check_int "both were killed at the deadline" 2 o.Campaign.Exec.timed_out;
      let sts = Campaign.Store.statuses ~dir small_spec in
      let hung =
        List.filter_map
          (fun ((p : Campaign.Spec.point), st) ->
            match st with
            | Campaign.Store.Failed f
              when List.assoc_opt "p" p.Campaign.Spec.params = Some "b" ->
              Some f
            | _ -> None)
          sts
      in
      check_int "both failures logged" 2 (List.length hung);
      check_bool "logged as timed out, diagnostic says so" true
        (List.for_all
           (fun (f : Campaign.Store.failure) ->
             f.Campaign.Store.f_timed_out
             && contains_substring f.Campaign.Store.f_msg "timed out")
           hung))

let test_exec_retry_budget_eventual_success () =
  with_temp_dir (fun dir ->
      init_ok ~dir small_spec;
      (* Every cell fails its first two attempts, then succeeds.  The
         attempt count lives in a per-cell marker file, which survives
         the child processes. *)
      let marker point =
        Filename.concat dir ("attempts_" ^ (point : Campaign.Spec.point).Campaign.Spec.id)
      in
      let flaky_twice : Campaign.Exec.runner =
       fun ~point ~quick:_ ~trace_path:_ ~metrics_path ->
        let n =
          match open_in (marker point) with
          | exception Sys_error _ -> 0
          | ic ->
            let n = int_of_string (input_line ic) in
            close_in ic;
            n
        in
        let oc = open_out (marker point) in
        output_string oc (string_of_int (n + 1));
        close_out oc;
        if n < 2 then Error (Printf.sprintf "flaky attempt %d" n)
        else begin
          write_metrics ~score:1. metrics_path;
          Ok ()
        end
      in
      let o =
        Campaign.Exec.run ~max_retries:3 ~retry_backoff_s:0.01 ~dir
          ~spec:small_spec ~runner:flaky_twice ()
      in
      check_int "every cell eventually ok" 4 o.Campaign.Exec.ok;
      check_int "no cell exhausted its budget" 0 o.Campaign.Exec.failed;
      check_int "two retries per cell" 8 o.Campaign.Exec.retried;
      let sts = Campaign.Store.statuses ~dir small_spec in
      check_bool "all done in the log" true
        (List.for_all (fun (_, st) -> st = Campaign.Store.Done) sts))

let test_exec_resume_skips_exhausted_budget () =
  with_temp_dir (fun dir ->
      init_ok ~dir small_spec;
      (* a previous invocation spent the whole budget on this cell *)
      Campaign.Store.record ~dir "p=a,seed=0"
        (Campaign.Store.failed ~retries:2 "permanently broken");
      let o =
        Campaign.Exec.run ~max_retries:2 ~dir ~spec:small_spec
          ~runner:(scoring_runner ~score:1.) ()
      in
      check_int "exhausted cell skipped like a done cell" 1
        o.Campaign.Exec.skipped;
      check_int "the rest ran" 3 o.Campaign.Exec.ran;
      (* legacy mode (no budget): the same cell is simply retried *)
      let o2 =
        Campaign.Exec.run ~dir ~spec:small_spec
          ~runner:(scoring_runner ~score:1.) ()
      in
      check_int "done cells skipped" 3 o2.Campaign.Exec.skipped;
      check_int "no budget: the failed cell is re-attempted" 1
        o2.Campaign.Exec.ran;
      check_int "and succeeds" 1 o2.Campaign.Exec.ok)

(* A "failed" line with a negative retry count is damaged, not a
   budget: replayed as written, "retries":-3 under a budget of one
   retry would buy a permanently failing cell three retries.  It is
   skipped like a torn line, so the cell is pending and gets the one
   attempt its budget allows. *)
let test_exec_damaged_retries_skipped () =
  with_temp_dir (fun dir ->
      init_ok ~dir small_spec;
      let oc =
        open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644
          (Campaign.Store.log_path dir)
      in
      output_string oc
        "{\"cell\":\"p=a,seed=0\",\"status\":\"failed\",\"error\":\"broken\",\"retries\":-3}\n";
      close_out oc;
      let st id sts =
        List.assoc id
          (List.map (fun ((p : Campaign.Spec.point), s) -> (p.Campaign.Spec.id, s)) sts)
      in
      check_bool "damaged line skipped" true
        (st "p=a,seed=0" (Campaign.Store.statuses ~dir small_spec) = Campaign.Store.Pending);
      let broken : Campaign.Exec.runner =
       fun ~point ~quick:_ ~trace_path:_ ~metrics_path ->
        if point.Campaign.Spec.id = "p=a,seed=0" then Error "still broken"
        else begin
          write_metrics ~score:1. metrics_path;
          Ok ()
        end
      in
      let o = Campaign.Exec.run ~max_retries:1 ~dir ~spec:small_spec ~runner:broken () in
      check_int "no retry bought" 0 o.Campaign.Exec.retried;
      check_int "one failed cell" 1 o.Campaign.Exec.failed;
      check_bool "its one attempt logged" true
        (match st "p=a,seed=0" (Campaign.Store.statuses ~dir small_spec) with
         | Campaign.Store.Failed f -> f.Campaign.Store.f_retries = 1
         | _ -> false))

(* The checkpoint contract: a limit-bounded first pass (a stand-in for
   a killed campaign) leaves artifacts that a second full pass must not
   recompute. *)
let test_exec_limit_then_resume () =
  with_temp_dir (fun dir ->
      init_ok ~dir small_spec;
      let o1 = run_exec ~limit:1 ~dir ~spec:small_spec (scoring_runner ~score:1.) in
      check_int "first pass ran one cell" 1 o1.Campaign.Exec.ran;
      let o2 = run_exec ~dir ~spec:small_spec (scoring_runner ~score:2.) in
      check_int "second pass skipped the done cell" 1 o2.Campaign.Exec.skipped;
      check_int "second pass ran the rest" 3 o2.Campaign.Exec.ran;
      match Campaign.Store.load ~dir with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok (_, cells) ->
        let scores =
          List.filter_map
            (fun (c : Campaign.Store.loaded) ->
              List.assoc_opt "score" c.Campaign.Store.metrics)
            cells
        in
        (* the first-pass artifact survives with its original value *)
        check_int "one cell kept the first-pass artifact" 1
          (List.length (List.filter (fun s -> near s 1.) scores));
        check_int "three cells carry the second-pass value" 3
          (List.length (List.filter (fun s -> near s 2.) scores)))

(* Without a timeout the executor still polls while a retry backs off:
   cell a fails its first attempt and may retry 0.2 s later, while b
   holds the other worker for 1.5 s.  a's retry takes the free worker
   at once instead of waiting for b to exit. *)
let test_exec_retry_not_behind_running_cell () =
  with_temp_dir (fun dir ->
      let spec =
        parse_spec
          {|{"schema":"dsas-campaign-spec/1","name":"t","cell":"synthetic","seeds":[0],
             "quick":true,"axes":[{"name":"p","values":["a","b"]}]}|}
      in
      init_ok ~dir spec;
      let failed_once = Filename.concat dir "a_failed_once" in
      let runner : Campaign.Exec.runner =
       fun ~point ~quick:_ ~trace_path:_ ~metrics_path ->
        match List.assoc_opt "p" point.Campaign.Spec.params with
        | Some "a" when not (Sys.file_exists failed_once) ->
          close_out (open_out failed_once);
          Error "first attempt fails"
        | p ->
          if p = Some "b" then Unix.sleepf 1.5;
          write_metrics ~score:1. metrics_path;
          Ok ()
      in
      let o =
        Campaign.Exec.run ~jobs:2 ~max_retries:2 ~retry_backoff_s:0.2 ~dir ~spec ~runner ()
      in
      check_int "both cells ok" 2 o.Campaign.Exec.ok;
      check_int "a retried once" 1 o.Campaign.Exec.retried;
      let timings = Campaign.Store.timings ~dir in
      let a = List.assoc "p=a,seed=0" timings and b = List.assoc "p=b,seed=0" timings in
      match (a.Campaign.Store.t_started, b.Campaign.Store.t_finished) with
      | Some a_retry, Some b_done ->
        if a_retry >= b_done then
          Alcotest.failf "a's retry started %.3f s after b finished" (a_retry -. b_done)
      | _ -> Alcotest.fail "executor left a stamp out")

(* --- report ---------------------------------------------------------- *)

let loaded_cell ~params ~seed ~metrics =
  let id =
    String.concat ","
      (List.map (fun (k, v) -> k ^ "=" ^ v) params
      @ [ "seed=" ^ string_of_int seed ])
  in
  {
    Campaign.Store.point = { Campaign.Spec.id; params; seed; traced = false };
    status = Campaign.Store.Done;
    metrics;
  }

let test_report_aggregate () =
  let cells =
    [
      loaded_cell ~params:[ ("w", "2") ] ~seed:0 ~metrics:[ ("m", 4.) ];
      loaded_cell ~params:[ ("w", "2") ] ~seed:1 ~metrics:[ ("m", 6.) ];
      loaded_cell ~params:[ ("w", "10") ] ~seed:0 ~metrics:[ ("m", 1.) ];
    ]
  in
  match Campaign.Report.aggregate cells ~metric:"m" ~by:"w" with
  | Error msg -> Alcotest.failf "aggregate failed: %s" msg
  | Ok groups ->
    (* numeric key ordering: 2 before 10 *)
    check_bool "numeric group order" true
      (List.map (fun (g : Campaign.Report.group) -> g.Campaign.Report.key) groups
      = [ "2"; "10" ]);
    let g2 = List.hd groups in
    check_int "group size" 2 g2.Campaign.Report.count;
    check_bool "group mean" true (near g2.Campaign.Report.mean 5.);
    check_bool "group min/max" true
      (near g2.Campaign.Report.g_min 4. && near g2.Campaign.Report.g_max 6.);
    (* grouping by seed is allowed *)
    (match Campaign.Report.aggregate cells ~metric:"m" ~by:"seed" with
     | Ok by_seed -> check_int "seed groups" 2 (List.length by_seed)
     | Error msg -> Alcotest.failf "seed grouping failed: %s" msg);
    (* unknown metric is an error, not an empty table *)
    (match Campaign.Report.aggregate cells ~metric:"nope" ~by:"w" with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "unknown metric aggregated")

let test_report_winners () =
  let cells =
    [
      loaded_cell ~params:[ ("w", "1"); ("pol", "x") ] ~seed:0 ~metrics:[ ("m", 3.) ];
      loaded_cell ~params:[ ("w", "1"); ("pol", "y") ] ~seed:0 ~metrics:[ ("m", 5.) ];
      loaded_cell ~params:[ ("w", "2"); ("pol", "x") ] ~seed:0 ~metrics:[ ("m", 9.) ];
      loaded_cell ~params:[ ("w", "2"); ("pol", "y") ] ~seed:0 ~metrics:[ ("m", 7.) ];
    ]
  in
  (match
     Campaign.Report.winners cells ~metric:"m" ~by:"w" ~contender:"pol"
       ~maximize:false
   with
   | Error msg -> Alcotest.failf "winners failed: %s" msg
   | Ok ws ->
     check_bool "crossover: x wins small, y wins large" true
       (List.map
          (fun (w : Campaign.Report.winner) ->
            (w.Campaign.Report.w_key, w.Campaign.Report.w_winner))
          ws
       = [ ("1", "x"); ("2", "y") ]));
  match
    Campaign.Report.winners cells ~metric:"m" ~by:"w" ~contender:"pol"
      ~maximize:true
  with
  | Error msg -> Alcotest.failf "winners failed: %s" msg
  | Ok ws ->
    check_bool "maximize flips the frontier" true
      (List.map (fun (w : Campaign.Report.winner) -> w.Campaign.Report.w_winner) ws
      = [ "y"; "x" ])

let test_report_fit_power_law () =
  (* y = 3 * x^2 exactly: slope 2, intercept log10 3, r^2 = 1 *)
  let cells =
    List.concat_map
      (fun x ->
        [
          loaded_cell
            ~params:[ ("w", string_of_int x) ]
            ~seed:0
            ~metrics:[ ("m", 3. *. float_of_int (x * x)) ];
        ])
      [ 10; 100; 1000 ]
  in
  match Campaign.Report.fit cells ~metric:"m" ~x:"w" ~agg:Campaign.Report.Mean with
  | Error msg -> Alcotest.failf "fit failed: %s" msg
  | Ok f ->
    check_bool "slope is the exponent" true
      (near f.Campaign.Report.fit.Metrics.Stats.slope 2.);
    check_bool "intercept is the prefactor" true
      (near f.Campaign.Report.fit.Metrics.Stats.intercept (log10 3.));
    check_bool "perfect fit" true
      (near f.Campaign.Report.fit.Metrics.Stats.r_square 1.);
    check_int "all groups used" 3 (List.length f.Campaign.Report.points)

let test_report_fit_needs_positive_points () =
  let cells =
    [
      loaded_cell ~params:[ ("w", "10") ] ~seed:0 ~metrics:[ ("m", 0.) ];
      loaded_cell ~params:[ ("w", "100") ] ~seed:0 ~metrics:[ ("m", 5.) ];
    ]
  in
  match Campaign.Report.fit cells ~metric:"m" ~x:"w" ~agg:Campaign.Report.Mean with
  | Error msg ->
    check_bool ("mentions positive groups: " ^ msg) true
      (contains_substring msg "positive")
  | Ok _ -> Alcotest.fail "fit through a zero group"

let test_golden_roundtrip_and_check () =
  let g =
    {
      Campaign.Report.g_metric = "m";
      g_x = "w";
      g_agg = Campaign.Report.Mean;
      exponent = 2.;
      tolerance = 0.05;
    }
  in
  (* round-trip through the JSON file format *)
  let path = Filename.temp_file "dsas_golden" ".json" in
  let oc = open_out path in
  output_string oc (Campaign.Report.golden_to_json g);
  close_out oc;
  let loaded =
    match Campaign.Report.load_golden path with
    | Ok g' -> g'
    | Error msg -> Alcotest.failf "golden round-trip failed: %s" msg
  in
  Sys.remove path;
  check_bool "round-trip" true (loaded = g);
  let fitted slope ~metric =
    {
      Campaign.Report.f_metric = metric;
      f_x = "w";
      f_agg = Campaign.Report.Mean;
      fit = { Metrics.Stats.slope; intercept = 0.; r_square = 1. };
      points = [ (10., 100.); (100., 10000.) ];
    }
  in
  (match Campaign.Report.check_golden g (fitted 2.03 ~metric:"m") with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "in-tolerance fit rejected: %s" msg);
  (match Campaign.Report.check_golden g (fitted 2.2 ~metric:"m") with
   | Error msg ->
     check_bool ("names the drift: " ^ msg) true (contains_substring msg "differs")
   | Ok () -> Alcotest.fail "drifted exponent passed");
  match Campaign.Report.check_golden g (fitted 2. ~metric:"other") with
  | Error msg ->
    check_bool ("names the identity clash: " ^ msg) true
      (contains_substring msg "golden is for")
  | Ok () -> Alcotest.fail "golden checked against a different quantity"

(* --- diff ------------------------------------------------------------ *)

let test_diff_drift_detection () =
  let old_cells =
    [
      loaded_cell ~params:[ ("p", "a") ] ~seed:0 ~metrics:[ ("m", 10.); ("z", 0.) ];
      loaded_cell ~params:[ ("p", "b") ] ~seed:0 ~metrics:[ ("m", 10.) ];
    ]
  in
  (* within threshold in one cell, 20% drift in the other, and a zero
     metric becoming non-zero *)
  let new_cells =
    [
      loaded_cell ~params:[ ("p", "a") ] ~seed:0 ~metrics:[ ("m", 10.04); ("z", 1.) ];
      loaded_cell ~params:[ ("p", "b") ] ~seed:0 ~metrics:[ ("m", 12.) ];
    ]
  in
  let c =
    Campaign.Diff.compare_campaigns ~threshold_pct:0.5 ~old_cells ~new_cells
  in
  let regs = Campaign.Diff.regressions c in
  check_int "two drifts flagged" 2 (List.length regs);
  (* worst drift first: 0 -> 1 is infinite, ahead of +20% *)
  let first = List.hd regs in
  check_string "infinite drift ranks first" "z" first.Campaign.Diff.metric;
  check_bool "infinite delta" true (first.Campaign.Diff.delta_pct = infinity);
  let second = List.nth regs 1 in
  check_string "then the 20% drift" "m" second.Campaign.Diff.metric;
  check_bool "signed percent delta" true (near second.Campaign.Diff.delta_pct 20.);
  (* shrinkage beyond threshold is a regression too: cells are
     deterministic, any drift is a behaviour change *)
  let shrunk =
    Campaign.Diff.compare_campaigns ~threshold_pct:0.5 ~old_cells
      ~new_cells:
        [
          loaded_cell ~params:[ ("p", "a") ] ~seed:0 ~metrics:[ ("m", 8.); ("z", 0.) ];
          loaded_cell ~params:[ ("p", "b") ] ~seed:0 ~metrics:[ ("m", 10.) ];
        ]
  in
  check_int "downward drift flagged" 1 (List.length (Campaign.Diff.regressions shrunk));
  (* identical campaigns: silence *)
  let same =
    Campaign.Diff.compare_campaigns ~threshold_pct:0.5 ~old_cells
      ~new_cells:old_cells
  in
  check_int "self-diff is clean" 0 (List.length (Campaign.Diff.regressions same));
  check_int "but every metric was compared" 3 (List.length same.Campaign.Diff.rows)

let test_diff_coverage_gaps () =
  let old_cells =
    [
      loaded_cell ~params:[ ("p", "a") ] ~seed:0 ~metrics:[ ("m", 1.); ("gone", 2.) ];
      loaded_cell ~params:[ ("p", "b") ] ~seed:0 ~metrics:[ ("m", 1.) ];
    ]
  in
  let new_cells =
    [
      loaded_cell ~params:[ ("p", "a") ] ~seed:0 ~metrics:[ ("m", 1.); ("born", 3.) ];
      loaded_cell ~params:[ ("p", "c") ] ~seed:0 ~metrics:[ ("m", 1.) ];
    ]
  in
  let c =
    Campaign.Diff.compare_campaigns ~threshold_pct:0.5 ~old_cells ~new_cells
  in
  check_bool "old-only cell and metric reported" true
    (c.Campaign.Diff.only_old = [ "p=a,seed=0#gone"; "p=b,seed=0" ]);
  check_bool "new-only cell and metric reported" true
    (c.Campaign.Diff.only_new = [ "p=a,seed=0#born"; "p=c,seed=0" ]);
  check_int "gaps are not regressions" 0 (List.length (Campaign.Diff.regressions c))

(* The committed fixtures: a real 2-cell campaign and a copy with one
   metric inflated 20% — the same pair the CI smoke job diffs. *)
let test_diff_fixtures () =
  match
    ( Campaign.Store.load ~dir:(fixture_dir "campaign_base"),
      Campaign.Store.load ~dir:(fixture_dir "campaign_slow20") )
  with
  | Error msg, _ | _, Error msg -> Alcotest.failf "fixture unreadable: %s" msg
  | Ok (_, base), Ok (_, slow) ->
    let self =
      Campaign.Diff.compare_campaigns ~threshold_pct:0.5 ~old_cells:base
        ~new_cells:base
    in
    check_int "base self-diff is clean" 0
      (List.length (Campaign.Diff.regressions self));
    let c =
      Campaign.Diff.compare_campaigns ~threshold_pct:10. ~old_cells:base
        ~new_cells:slow
    in
    (match Campaign.Diff.regressions c with
     | [ r ] ->
       check_string "the inflated metric" "alloc.mean_search" r.Campaign.Diff.metric;
       check_string "in the perturbed cell" "policy=best-fit,words=1024,seed=0"
         r.Campaign.Diff.cell;
       check_bool "drift above threshold" true (r.Campaign.Diff.delta_pct > 10.)
     | rs -> Alcotest.failf "expected exactly one regression, got %d" (List.length rs))

let () =
  Alcotest.run "campaign"
    [
      ( "spec",
        [
          Alcotest.test_case "sweep spec parses" `Quick test_spec_parse;
          Alcotest.test_case "defaults applied" `Quick test_spec_defaults;
          Alcotest.test_case "bad specs rejected" `Quick test_spec_rejects;
          Alcotest.test_case "inexact numbers and non-boolean quick rejected" `Quick
            test_spec_rejects_inexact;
          Alcotest.test_case "non-finite cell floats rejected" `Quick
            test_cell_rejects_non_finite;
          Alcotest.test_case "grid expansion and ids" `Quick test_spec_points;
          Alcotest.test_case "config hash pins the grid" `Quick test_spec_hash;
          Alcotest.test_case "config hash matches the committed manifest" `Quick
            test_spec_hash_matches_committed_manifest;
        ] );
      ( "store",
        [
          Alcotest.test_case "checkpoint log replay, last line wins" `Quick
            test_store_log_replay;
          Alcotest.test_case "resume refuses a different grid" `Quick
            test_store_resume_identity;
          Alcotest.test_case "artifacts flatten to scalars" `Quick
            test_store_load_flattens;
          Alcotest.test_case "done cell without artifact refused" `Quick
            test_store_load_strict;
          Alcotest.test_case "timings mined from the log stamps" `Quick
            test_store_timings_replay;
        ] );
      ( "exec",
        [
          Alcotest.test_case "forked pool runs the whole grid" `Quick
            test_exec_runs_grid;
          Alcotest.test_case "failures captured and retried" `Quick
            test_exec_failure_capture_and_retry;
          Alcotest.test_case "runner exception fails only its cell" `Quick
            test_exec_exception_is_a_failed_cell;
          Alcotest.test_case "hung cell killed at the deadline" `Quick
            test_exec_timeout_kills_hung_cell;
          Alcotest.test_case "retry budget rides out flaky cells" `Quick
            test_exec_retry_budget_eventual_success;
          Alcotest.test_case "resume skips an exhausted budget" `Quick
            test_exec_resume_skips_exhausted_budget;
          Alcotest.test_case "damaged retry count skipped" `Quick
            test_exec_damaged_retries_skipped;
          Alcotest.test_case "limit then resume recomputes nothing" `Quick
            test_exec_limit_then_resume;
          Alcotest.test_case "every attempt wall-clock stamped" `Quick
            test_exec_stamps_timings;
          Alcotest.test_case "retry starts beside a running cell" `Quick
            test_exec_retry_not_behind_running_cell;
        ] );
      ( "report",
        [
          Alcotest.test_case "group-by aggregation" `Quick test_report_aggregate;
          Alcotest.test_case "crossover winner tables" `Quick test_report_winners;
          Alcotest.test_case "power-law fit recovers the exponent" `Quick
            test_report_fit_power_law;
          Alcotest.test_case "fit refuses non-positive groups" `Quick
            test_report_fit_needs_positive_points;
          Alcotest.test_case "goldens round-trip and gate drift" `Quick
            test_golden_roundtrip_and_check;
        ] );
      ( "diff",
        [
          Alcotest.test_case "drift in either direction flagged" `Quick
            test_diff_drift_detection;
          Alcotest.test_case "coverage gaps reported, not failed" `Quick
            test_diff_coverage_gaps;
          Alcotest.test_case "committed 20%-drift fixture detected" `Quick
            test_diff_fixtures;
        ] );
    ]
