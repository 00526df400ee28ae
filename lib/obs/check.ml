type invariant =
  | Schema
  | Clock
  | Io_pair
  | Queue_depth
  | Frames
  | Heap
  | Vocab
  | Retry_bounded
  | Restart_bounded
  | No_lost_job
  | Shard_restart_bounded
  | No_lost_shard_events
  | Watchdog_paired
  | Watchdog_bounded

let all_invariants =
  [ Schema; Clock; Io_pair; Queue_depth; Frames; Heap; Vocab; Retry_bounded;
    Restart_bounded; No_lost_job; Shard_restart_bounded; No_lost_shard_events;
    Watchdog_paired; Watchdog_bounded ]

(* Sanity caps for the bounded-recovery invariants.  No engine config in
   this repo goes anywhere near them; a trace that does is runaway
   retry/restart machinery, which is exactly what they exist to catch. *)
let retry_cap = 64

let restart_cap = 16

let invariant_id = function
  | Schema -> "schema"
  | Clock -> "clock"
  | Io_pair -> "io-pair"
  | Queue_depth -> "queue-depth"
  | Frames -> "frames"
  | Heap -> "heap"
  | Vocab -> "vocab"
  | Retry_bounded -> "retry-bounded"
  | Restart_bounded -> "restart-bounded"
  | No_lost_job -> "no-lost-job"
  | Shard_restart_bounded -> "shard-restart-bounded"
  | No_lost_shard_events -> "no-lost-shard-events"
  | Watchdog_paired -> "watchdog-paired"
  | Watchdog_bounded -> "watchdog-bounded"

let invariant_doc = function
  | Schema ->
    "every line is a well-formed event object with sane fields (known event \
     name, non-negative ids and timestamps, positive sizes, increasing run ids)"
  | Clock ->
    "within a run segment, the timestamps of engine events are monotone \
     non-decreasing (io_* events are exempt: a device stamps them with planned \
     service times, which may interleave out of order)"
  | Io_pair ->
    "every io_start is answered by exactly one io_done or io_error with the \
     same request id, page and kind; io_retry refers to a request that is in \
     flight; nothing is left in flight at a run boundary"
  | Queue_depth ->
    "the number of in-flight device requests (io_start minus io_done, in \
     stream order) never goes negative"
  | Frames ->
    "frame-count conservation: a fault fetches only an absent page, an \
     eviction or writeback names a resident one, and a cold_fault marks \
     exactly the first fetch of its page in the run"
  | Heap ->
    "words conservation: within a run, the running sum of freed words never \
     exceeds the words allocated so far"
  | Vocab ->
    "each run speaks one engine's event vocabulary (paging, allocator or \
     segmentation) — kinds from different engines never mix in a segment"
  | Retry_bounded ->
    "retries are bounded and well-formed: io_retry attempts per request count \
     1, 2, 3, ... with no gaps, never exceed 64, and an io_error reports at \
     least as many attempts as the retries it follows"
  | Restart_bounded ->
    "job restarts are bounded: job_abort restart counts per job count up by \
     one from 1, never exceed 16, and abort only a running job"
  | No_lost_job ->
    "no job is lost: job_start/job_stop pair exactly per run, a shed job is \
     re-admitted before it runs again or stops, and nothing is left running \
     or shed at a run boundary"
  | Shard_restart_bounded ->
    "shard restarts are bounded and well-formed: shard_crash attempts per \
     shard count 1, 2, 3, ... with no gaps and never exceed 16, and every \
     shard_restart answers a crash already seen (restart n follows crash n)"
  | No_lost_shard_events ->
    "no shard events are lost: per shard, shard_checkpoint (progress, events) \
     pairs are monotone non-decreasing — a recovery never rolls a shard's \
     durable progress or emitted-event count backwards"
  | Watchdog_paired ->
    "watchdog episodes pair up: per rule, watchdog_fire only when the rule is \
     not already firing and watchdog_clear only answers an open fire (an \
     episode still open at a run boundary is fine — the condition may simply \
     persist to the end)"
  | Watchdog_bounded ->
    "watchdog counts are sane: snapshot counts are positive, and a clear \
     reports at least as many violating snapshots as its fire did"

type violation = { line : int; invariant : invariant; message : string }

type report = {
  events : int;
  runs : int;
  counts : (invariant * int) list;
  violations : violation list;
}

let ok r = r.counts = []

(* The event vocabularies engines actually speak.  [run_start] is the
   segment boundary itself and belongs to none. *)
let profiles =
  [
    ( "paging",
      [ "fault"; "cold_fault"; "eviction"; "writeback"; "tlb_hit"; "tlb_miss";
        "job_start"; "job_stop"; "io_start"; "io_done"; "io_retry"; "io_error";
        "job_abort"; "load_shed"; "load_admit" ] );
    ("allocator", [ "alloc"; "free"; "split"; "coalesce"; "compaction_move" ]);
    ( "segmentation",
      [ "segment_swap"; "compaction_move"; "job_start"; "job_stop"; "io_start";
        "io_done"; "io_retry"; "io_error" ] );
    ("supervision", [ "shard_crash"; "shard_restart"; "shard_checkpoint" ]);
  ]

(* Mutable per-run state, reset at every run_start. *)
type run_state = {
  mutable prev_t : int option;  (* last engine (non-io) timestamp *)
  opens : (int, int * int * Event.io) Hashtbl.t;  (* req -> line, page, kind *)
  mutable depth : int;  (* io_start minus io_done/io_error, in stream order *)
  resident : (int, unit) Hashtbl.t;
  fault_count : (int, int) Hashtbl.t;
  mutable balance : int;  (* allocated minus freed words *)
  mutable kinds : string list;  (* distinct kind names, first-seen order *)
  retries : (int, int) Hashtbl.t;  (* req -> highest io_retry attempt seen *)
  jobs : (int, [ `Running | `Shed ]) Hashtbl.t;  (* started, unstopped jobs *)
  restarts : (int, int) Hashtbl.t;  (* job -> highest job_abort restart seen *)
  shard_crashes : (int, int) Hashtbl.t;  (* shard -> highest crash attempt *)
  shard_restarts : (int, int) Hashtbl.t;  (* shard -> highest restart attempt *)
  shard_progress : (int, int * int) Hashtbl.t;  (* shard -> progress, events *)
  watchdogs : (string, int) Hashtbl.t;  (* open fires: rule -> snapshots at fire *)
}

let fresh_run () =
  {
    prev_t = None;
    opens = Hashtbl.create 16;
    depth = 0;
    resident = Hashtbl.create 64;
    fault_count = Hashtbl.create 64;
    balance = 0;
    kinds = [];
    retries = Hashtbl.create 16;
    jobs = Hashtbl.create 16;
    restarts = Hashtbl.create 16;
    shard_crashes = Hashtbl.create 8;
    shard_restarts = Hashtbl.create 8;
    shard_progress = Hashtbl.create 8;
    watchdogs = Hashtbl.create 8;
  }

type checker = {
  limit : int;
  mutable events : int;
  mutable runs : int;
  mutable last_run_id : int option;
  mutable kept : violation list;  (* newest first, capped at [limit] *)
  tally : (invariant, int) Hashtbl.t;
  mutable run : run_state;
}

let create ?(limit = 50) () =
  {
    limit;
    events = 0;
    runs = 1;
    last_run_id = None;
    kept = [];
    tally = Hashtbl.create 8;
    run = fresh_run ();
  }

let report_violation c ~line invariant fmt =
  Printf.ksprintf
    (fun message ->
      let n = match Hashtbl.find_opt c.tally invariant with Some n -> n | None -> 0 in
      Hashtbl.replace c.tally invariant (n + 1);
      if List.length c.kept < c.limit then
        c.kept <- { line; invariant; message } :: c.kept)
    fmt

(* Close out the current segment: dangling requests and the vocabulary
   test only make sense once the segment's events have all been seen. *)
let finish_run c ~line =
  (* lint: allow L3 — diagnostics are sorted by request id below *)
  let dangling = Hashtbl.fold (fun req (l, _, _) acc -> (req, l) :: acc) c.run.opens [] in
  List.iter
    (fun (req, start_line) ->
      report_violation c ~line Io_pair
        "request %d (io_start at line %d) never completed" req start_line)
    (List.sort compare dangling);
  (* lint: allow L3 — diagnostics are sorted by job id below *)
  let live = Hashtbl.fold (fun job state acc -> (job, state) :: acc) c.run.jobs [] in
  List.iter
    (fun (job, state) ->
      report_violation c ~line No_lost_job "job %d left %s at end of run" job
        (match state with `Running -> "running" | `Shed -> "shed"))
    (List.sort compare live);
  (match c.run.kinds with
   | [] -> ()
   | kinds ->
     let fits (_, profile) = List.for_all (fun k -> List.mem k profile) kinds in
     if not (List.exists fits profiles) then
       report_violation c ~line Vocab
         "run mixes event vocabularies: {%s} fits no engine profile (%s)"
         (String.concat ", " (List.sort compare kinds))
         (String.concat ", " (List.map fst profiles)));
  c.run <- fresh_run ()

let check_clock c ~line t_us =
  (match c.run.prev_t with
   | Some prev when t_us < prev ->
     report_violation c ~line Clock "clock went backwards: %d after %d" t_us prev
   | Some _ | None -> ());
  c.run.prev_t <- Some t_us

(* The [key]'s attempt count [n] goes up by one from 1 (the highest seen
   is kept in [tbl]) and stays within [cap]. *)
let count_up ?cap c ~line invariant tbl ~what ~noun key n =
  let prev = match Hashtbl.find_opt tbl key with Some n -> n | None -> 0 in
  if n <> prev + 1 then
    report_violation c ~line invariant "%s %d for %s %d out of sequence (previous was %d)" what
      n noun key prev;
  (match cap with
   | Some (verb, cap) when n > cap ->
     report_violation c ~line invariant "%s %d %s %d times, above the sanity cap of %d" noun key
       verb n cap
   | Some _ | None -> ());
  Hashtbl.replace tbl key (max n (prev + 1))

let feed c ~line (ev : Event.t) =
  c.events <- c.events + 1;
  let r = c.run in
  let name = Event.kind_name ev.kind in
  (match ev.kind with
   | Event.Run_start _ ->
     finish_run c ~line;
     c.runs <- c.runs + 1
   | Event.Io_start _ | Event.Io_done _ | Event.Io_error _ | Event.Io_retry _ -> ()
   | _ -> check_clock c ~line ev.t_us);
  List.iter
    (fun (key, v, least) ->
      if least = 1 then
        report_violation c ~line Schema "field %S must be positive (got %d)" key v
      else report_violation c ~line Schema "field %S is negative (%d)" key v)
    (Event.out_of_range ev.kind);
  (match ev.kind with
   | Event.Run_start { run; _ } ->
     (match c.last_run_id with
      | Some prev when run <= prev ->
        report_violation c ~line Schema "run id %d not above previous run %d" run prev
      | Some _ | None -> ());
     c.last_run_id <- Some run
   | Event.Io_start { req; page; io } ->
     r.depth <- r.depth + 1;
     (match Hashtbl.find_opt r.opens req with
      | Some (l, _, _) ->
        report_violation c ~line Io_pair
          "second io_start for request %d (already open since line %d)" req l
      | None -> Hashtbl.replace r.opens req (line, page, io))
   | Event.Io_done { req; page; io } | Event.Io_error { req; page; io; _ } ->
     (* io_done and io_error both close the request *)
     let verb = if name = "io_done" then "done" else "failed" in
     r.depth <- r.depth - 1;
     if r.depth < 0 then
       report_violation c ~line Queue_depth
         "in-flight request count went negative (%s for request %d)" name req;
     (match Hashtbl.find_opt r.opens req with
      | None -> report_violation c ~line Io_pair "%s for request %d never started" name req
      | Some (start_line, start_page, start_io) ->
        Hashtbl.remove r.opens req;
        if start_page <> page then
          report_violation c ~line Io_pair
            "request %d %s with page %d but started with page %d (line %d)" req verb
            page start_page start_line;
        if start_io <> io then
          report_violation c ~line Io_pair
            "request %d %s as %s but started as %s (line %d)" req verb
            (Event.io_name io) (Event.io_name start_io) start_line);
     (match (ev.kind, Hashtbl.find_opt r.retries req) with
      | Event.Io_error { attempts; _ }, Some seen when attempts < seen ->
        report_violation c ~line Retry_bounded
          "io_error for request %d reports %d attempts, fewer than the %d \
           retries already seen"
          req attempts seen
      | _ -> ());
     Hashtbl.remove r.retries req
   | Event.Io_retry { req; attempt } ->
     if not (Hashtbl.mem r.opens req) then
       report_violation c ~line Io_pair "io_retry for request %d not in flight" req;
     count_up c ~line Retry_bounded r.retries ~what:"io_retry attempt" ~noun:"request"
       ~cap:("retried", retry_cap) req attempt
   | Event.Fault { page } ->
     if Hashtbl.mem r.resident page then
       report_violation c ~line Frames "fault fetches page %d, which is resident" page;
     Hashtbl.replace r.resident page ();
     let n = match Hashtbl.find_opt r.fault_count page with Some n -> n | None -> 0 in
     Hashtbl.replace r.fault_count page (n + 1)
   | Event.Cold_fault { page } ->
     if not (Hashtbl.mem r.resident page) then
       report_violation c ~line Frames "cold_fault for absent page %d" page
     else begin
       match Hashtbl.find_opt r.fault_count page with
       | Some 1 -> ()
       | Some n ->
         report_violation c ~line Frames
           "cold_fault for page %d, already fetched %d times this run" page (n - 1)
       | None -> report_violation c ~line Frames "cold_fault for unfetched page %d" page
     end
   | Event.Eviction { page } ->
     if not (Hashtbl.mem r.resident page) then
       report_violation c ~line Frames "eviction of non-resident page %d" page
     else Hashtbl.remove r.resident page
   | Event.Writeback { page } ->
     if not (Hashtbl.mem r.resident page) then
       report_violation c ~line Frames "writeback of non-resident page %d" page
   | Event.Tlb_hit _ | Event.Tlb_miss _ | Event.Split _ | Event.Coalesce _
   | Event.Compaction_move _ | Event.Segment_swap _ ->
     ()
   | Event.Alloc { size; _ } ->
     r.balance <- r.balance + size
   | Event.Free { addr; size } ->
     r.balance <- r.balance - size;
     if r.balance < 0 then
       report_violation c ~line Heap
         "freed words exceed allocated words by %d after free at %d" (-r.balance)
         addr
   | Event.Job_start { job } ->
     if Hashtbl.mem r.jobs job then
       report_violation c ~line No_lost_job
         "job %d started again while still live" job
     else Hashtbl.replace r.jobs job `Running
   | Event.Job_stop { job } ->
     (match Hashtbl.find_opt r.jobs job with
      | Some `Running -> Hashtbl.remove r.jobs job
      | Some `Shed ->
        report_violation c ~line No_lost_job
          "job %d stopped while shed (never re-admitted)" job;
        Hashtbl.remove r.jobs job
      | None ->
        report_violation c ~line No_lost_job "job %d stopped but never started" job)
   | Event.Job_abort { job; restarts } ->
     (match Hashtbl.find_opt r.jobs job with
      | Some `Running -> ()
      | Some `Shed ->
        report_violation c ~line Restart_bounded "job %d aborted while shed" job
      | None ->
        report_violation c ~line Restart_bounded
          "job %d aborted but never started" job);
     count_up c ~line Restart_bounded r.restarts ~what:"job_abort restart count" ~noun:"job"
       ~cap:("restarted", restart_cap) job restarts
   | Event.Load_shed { job } ->
     (match Hashtbl.find_opt r.jobs job with
      | Some `Running -> Hashtbl.replace r.jobs job `Shed
      | Some `Shed ->
        report_violation c ~line No_lost_job "job %d shed twice" job
      | None ->
        report_violation c ~line No_lost_job
          "load_shed for job %d, which never started" job)
   | Event.Load_admit { job } ->
     (match Hashtbl.find_opt r.jobs job with
      | Some `Shed -> Hashtbl.replace r.jobs job `Running
      | Some `Running ->
        report_violation c ~line No_lost_job
          "load_admit for job %d, which is not shed" job
      | None ->
        report_violation c ~line No_lost_job
          "load_admit for job %d, which never started" job)
   | Event.Shard_crash { shard; attempt } ->
     count_up c ~line Shard_restart_bounded r.shard_crashes ~what:"shard_crash attempt"
       ~noun:"shard" ~cap:("crashed", restart_cap) shard attempt
   | Event.Shard_restart { shard; attempt } ->
     let crashes =
       match Hashtbl.find_opt r.shard_crashes shard with Some n -> n | None -> 0
     in
     count_up c ~line Shard_restart_bounded r.shard_restarts ~what:"shard_restart attempt"
       ~noun:"shard" shard attempt;
     if attempt > crashes then
       report_violation c ~line Shard_restart_bounded
         "shard_restart %d for shard %d answers no crash (crashes seen: %d)"
         attempt shard crashes
   | Event.Shard_checkpoint { shard; progress; events } ->
     (match Hashtbl.find_opt r.shard_progress shard with
      | Some (p, e) when progress < p || events < e ->
        report_violation c ~line No_lost_shard_events
          "shard %d checkpoint went backwards: progress %d after %d, events %d \
           after %d"
          shard progress p events e
      | Some _ | None -> ());
     let p0, e0 =
       match Hashtbl.find_opt r.shard_progress shard with
       | Some (p, e) -> (p, e)
       | None -> (0, 0)
     in
     Hashtbl.replace r.shard_progress shard (max progress p0, max events e0)
   | Event.Watchdog_fire { rule; snapshots } ->
     (match Hashtbl.find_opt r.watchdogs rule with
      | Some _ ->
        report_violation c ~line Watchdog_paired
          "watchdog rule %S fired again while already firing" rule
      | None -> ());
     Hashtbl.replace r.watchdogs rule snapshots
   | Event.Watchdog_clear { rule; snapshots } ->
     (match Hashtbl.find_opt r.watchdogs rule with
      | None ->
        report_violation c ~line Watchdog_paired
          "watchdog_clear for rule %S answers no open fire" rule
      | Some fired ->
        if snapshots < fired then
          report_violation c ~line Watchdog_bounded
            "watchdog rule %S cleared after %d snapshot(s), fewer than the %d \
             reported at fire"
            rule snapshots fired;
        Hashtbl.remove r.watchdogs rule));
  (match ev.kind with
   (* Watchdog events are an observer overlay, not part of any engine's
      vocabulary — like run_start they are excluded from the profile
      test. *)
   | Event.Run_start _ | Event.Watchdog_fire _ | Event.Watchdog_clear _ -> ()
   | _ -> if not (List.mem name r.kinds) then r.kinds <- name :: r.kinds)

let finish c ~line =
  finish_run c ~line;
  let counts =
    List.filter_map
      (fun i ->
        match Hashtbl.find_opt c.tally i with
        | Some n when n > 0 -> Some (i, n)
        | Some _ | None -> None)
      all_invariants
  in
  {
    events = c.events;
    runs = c.runs;
    counts;
    violations = List.rev c.kept;
  }

let check_events ?limit events =
  let c = create ?limit () in
  List.iteri (fun i ev -> feed c ~line:(i + 1) ev) events;
  finish c ~line:(List.length events)

let feed_text c ~line trimmed =
  match Event.of_json trimmed with
  | Some ev -> feed c ~line ev
  | None ->
    report_violation c ~line Schema "not an event: %s"
      (if String.length trimmed > 60 then String.sub trimmed 0 60 ^ "..."
       else trimmed)

let to_json (r : report) =
  Json.to_string
    (Json.Obj
       [
         ("events", Json.Int r.events);
         ("runs", Json.Int r.runs);
         ("ok", Json.Bool (ok r));
         ("counts", Json.Obj (List.map (fun (i, n) -> (invariant_id i, Json.Int n)) r.counts));
         ( "violations",
           Json.List
             (List.map
                (fun v ->
                  Json.Obj
                    [
                      ("line", Json.Int v.line);
                      ("invariant", Json.String (invariant_id v.invariant));
                      ("message", Json.String v.message);
                    ])
                r.violations) );
       ])

let print (r : report) =
  Printf.printf "%d events in %d run segment(s)\n" r.events r.runs;
  if ok r then print_endline "all invariants hold"
  else begin
    print_endline "invariant violations:";
    List.iter
      (fun (i, n) -> Printf.printf "  %-12s %d\n" (invariant_id i) n)
      r.counts;
    List.iter
      (fun v ->
        Printf.printf "  line %d [%s]: %s\n" v.line (invariant_id v.invariant)
          v.message)
      r.violations;
    let total = List.fold_left (fun acc (_, n) -> acc + n) 0 r.counts in
    let shown = List.length r.violations in
    if total > shown then Printf.printf "  (... %d more not shown)\n" (total - shown)
  end

let print_invariants () =
  List.iter
    (fun i -> Printf.printf "%-12s %s\n" (invariant_id i) (invariant_doc i))
    all_invariants

(* A telemetry mirror announces itself in its first data line, so one
   pass over the file serves either reader. *)
let is_mirror line =
  Option.bind (Json.flat line) (fun fields -> Json.string (List.assoc_opt "schema" fields))
  = Some Telemetry.schema

let report_file ~limit ~json file =
  let c = create ~limit () and t = Telemetry.checker ~limit and mirror = ref None in
  let parse line =
    if !mirror = None then mirror := Some (is_mirror line);
    if !mirror = Some true then Option.map Either.left (Telemetry.snapshot_of_json line)
    else Some (Either.Right line)
  in
  let step () line = Either.fold ~left:(Telemetry.check_snapshot t) ~right:(feed_text c ~line) in
  match Artifact.fold_file parse step () file with
  | Error _ as e -> e
  | Ok ((), r) when !mirror = Some true -> Telemetry.report_check ~json t r
  | Ok ((), r) ->
    let report = finish c ~line:r.lines in
    if json then print_endline (to_json report) else print report;
    if ok report then Ok ()
    else
      Error
        (Printf.sprintf "%s: %d invariant violation(s): %s" r.label
           (List.fold_left (fun acc (_, n) -> acc + n) 0 report.counts)
           (String.concat ", "
              (List.map
                 (fun (i, n) -> Printf.sprintf "%s x%d" (invariant_id i) n)
                 report.counts)))
