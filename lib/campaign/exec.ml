(* The campaign executor: fan the pending grid points across a pool of
   forked workers, checkpointing one status-log line per completed
   cell.

   Isolation by fork, not threads: a cell that diverges, leaks or dies
   takes its process with it, and the parent records a failed cell and
   keeps going.  The child writes its artifacts (metrics, optional
   trace, error text) and exits; the parent is the only writer of the
   status log, so the log stays line-atomic without locking.

   Resume is free: the runner consults the replayed log and skips
   cells already done; failed cells are retried (their previous
   failure stays in the log — last line wins).  With a retry budget
   ([max_retries > 0]) the per-cell attempt count is itself part of
   the log, so a resumed campaign does not re-run a permanently
   failing cell forever: once a cell's recorded retries reach the
   budget it is skipped like a done cell.

   With [timeout_s] the parent polls (WNOHANG) instead of blocking in
   wait, and SIGKILLs any child past its wall-clock deadline; the
   failure is recorded as timed out.  It also polls while a queued
   retry backs off with a worker free, so the retry starts when its
   backoff ends rather than when some other cell exits.  Otherwise the
   blocking reap is kept — no polling overhead on the common path. *)

type runner =
  point:Spec.point ->
  quick:bool ->
  trace_path:string option ->
  metrics_path:string ->
  (unit, string) result

type outcome = {
  total : int;
  skipped : int;  (* already done (or out of retries) at run start *)
  ran : int;
  ok : int;
  failed : int;
  timed_out : int;  (* attempts killed at the wall-clock limit *)
  retried : int;  (* retry attempts performed this run *)
}

let take n items =
  let rec go n acc = function
    | [] -> List.rev acc
    | _ when n <= 0 -> List.rev acc
    | x :: rest -> go (n - 1) (x :: acc) rest
  in
  go n [] items

let read_error ~dir id =
  match In_channel.with_open_bin (Store.error_path ~dir id) In_channel.input_all with
  | exception Sys_error _ -> None
  | s -> Some (String.trim s)

(* Runs in the child.  Any escape — an Error, an exception — lands in
   <id>.error.txt; the exit code tells the parent which way it went. *)
let run_cell ~dir ~spec ~runner (point : Spec.point) =
  let metrics_path = Store.metrics_path ~dir point.Spec.id in
  let trace_path =
    if point.Spec.traced then Some (Store.trace_path ~dir point.Spec.id) else None
  in
  let outcome =
    match runner ~point ~quick:spec.Spec.quick ~trace_path ~metrics_path with
    | r -> r
    | exception e -> Error (Printexc.to_string e)
  in
  match outcome with
  | Ok () -> 0
  | Error msg ->
    Obs.Artifact.write_atomic (Store.error_path ~dir point.Spec.id) (msg ^ "\n");
    1

(* One queued attempt: the grid point, failed attempts so far (across
   resumes — seeded from the log), and the earliest wall-clock time it
   may start (retry backoff). *)
type attempt = {
  at_point : Spec.point;
  at_retries : int;
  at_not_before : float;
}

type running = {
  r_attempt : attempt;
  r_deadline : float option;
  mutable r_timed_out : bool;
}

let run ?(jobs = 1) ?limit ?timeout_s ?(max_retries = 0) ?(retry_backoff_s = 0.)
    ?on_cell ~dir ~spec ~runner () =
  let jobs = if jobs < 1 then 1 else jobs in
  let statuses = Store.statuses ~dir spec in
  let total = List.length statuses in
  let pending =
    List.filter_map
      (fun ((p : Spec.point), st) ->
        match st with
        | Store.Done -> None
        | Store.Failed f when max_retries > 0 && f.Store.f_retries >= max_retries ->
          (* Out of budget on a previous invocation: resuming must not
             grind on a permanently failing cell. *)
          None
        | Store.Failed f ->
          Some { at_point = p; at_retries = f.Store.f_retries; at_not_before = 0. }
        | Store.Pending ->
          Some { at_point = p; at_retries = 0; at_not_before = 0. })
      statuses
  in
  let todo = match limit with Some n -> take n pending | None -> pending in
  let skipped = total - List.length pending in
  let queue = ref todo in
  let active = Hashtbl.create 16 in
  let ok = ref 0 and failed = ref 0 and timed_out = ref 0 and retried = ref 0 in
  let spawn (a : attempt) =
    (* Flush before forking: buffered output would otherwise be
       duplicated into every child. *)
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      let code =
        match run_cell ~dir ~spec ~runner a.at_point with
        | code -> code
        | exception _ -> 1
      in
      (* _exit, not exit: at_exit handlers and channel flushing belong
         to the parent. *)
      Unix._exit code
    | pid ->
      (* lint: allow L1 — the cell timeout bounds host wall-clock time, not simulated time *)
      let now = Unix.gettimeofday () in
      let deadline = Option.map (fun t -> now +. t) timeout_s in
      Store.record_start ~dir ~t:now a.at_point.Spec.id;
      Hashtbl.replace active pid
        { r_attempt = a; r_deadline = deadline; r_timed_out = false }
  in
  let settle pid child_status =
    match Hashtbl.find_opt active pid with
    | None -> ()
    | Some r ->
      Hashtbl.remove active pid;
      let a = r.r_attempt in
      let point = a.at_point in
      let fail ?(timed_out = false) msg =
        Store.failed ~timed_out ~retries:(a.at_retries + 1) msg
      in
      let status =
        match child_status with
        | Unix.WEXITED 0 -> Store.Done
        | Unix.WEXITED code ->
          let msg =
            match read_error ~dir point.Spec.id with
            | Some m when m <> "" -> m
            | _ -> Printf.sprintf "exit code %d" code
          in
          fail msg
        | Unix.WSIGNALED n when r.r_timed_out ->
          fail ~timed_out:true
            (Printf.sprintf "timed out after %.1fs (killed by signal %d)"
               (Option.value timeout_s ~default:0.) n)
        | Unix.WSIGNALED n -> fail (Printf.sprintf "killed by signal %d" n)
        | Unix.WSTOPPED n -> fail (Printf.sprintf "stopped by signal %d" n)
      in
      (match status with
       | Store.Done -> incr ok
       | Store.Failed f ->
         if f.Store.f_timed_out then incr timed_out;
         if f.Store.f_retries < max_retries then begin
           (* Budget left: log the attempt, back off linearly, requeue
              at the tail. *)
           incr retried;
           queue :=
             !queue
             @ [
                 {
                   at_point = point;
                   at_retries = f.Store.f_retries;
                   at_not_before =
                     (* lint: allow L1 — retry backoff is host wall-clock by definition *)
                     Unix.gettimeofday ()
                     +. (retry_backoff_s *. float_of_int f.Store.f_retries);
                 };
               ]
         end
         else incr failed
       | Store.Pending -> ());
      (* lint: allow L1 — completion stamps are host wall-clock by definition *)
      Store.record ~t:(Unix.gettimeofday ()) ~dir point.Spec.id status;
      (match on_cell with Some f -> f point status | None -> ())
  in
  let reap_blocking () =
    match Unix.wait () with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | pid, child_status -> settle pid child_status
  in
  (* Poll mode (used whenever a deadline or a backoff is in play): kill
     overdue children, reap without blocking, sleep a tick if nothing
     moved. *)
  let kill_overdue () =
    (* lint: allow L1 — deadline enforcement reads the host clock on purpose *)
    let now = Unix.gettimeofday () in
    (* lint: allow L3 — every overdue child is killed; visit order cannot matter *)
    Hashtbl.iter
      (fun pid r ->
        match r.r_deadline with
        | Some d when now >= d && not r.r_timed_out ->
          r.r_timed_out <- true;
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        | _ -> ())
      active
  in
  let reap_polling () =
    kill_overdue ();
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | 0, _ -> Unix.sleepf 0.02
    | pid, child_status -> settle pid child_status
  in
  let startable () =
    (* First queued attempt whose backoff has elapsed. *)
    (* lint: allow L1 — backoff comparison is against the host clock *)
    let now = Unix.gettimeofday () in
    let rec pick acc = function
      | [] -> None
      | a :: rest when a.at_not_before <= now ->
        queue := List.rev_append acc rest;
        Some a
      | a :: rest -> pick (a :: acc) rest
    in
    pick [] !queue
  in
  let all_backing_off () =
    !queue <> [] && Hashtbl.length active = 0 && startable () = None
  in
  while !queue <> [] || Hashtbl.length active > 0 do
    let spawned = ref true in
    while !spawned && Hashtbl.length active < jobs do
      match startable () with
      | Some a -> spawn a
      | None -> spawned := false
    done;
    if Hashtbl.length active > 0 then begin
      (* Whatever is still queued is backing off: the loop above would
         have started it otherwise. *)
      let backing_off = !queue <> [] && Hashtbl.length active < jobs in
      if timeout_s = None && not backing_off then reap_blocking () else reap_polling ()
    end
    else if all_backing_off () then Unix.sleepf 0.02
  done;
  {
    total;
    skipped;
    ran = !ok + !failed;
    ok = !ok;
    failed = !failed;
    timed_out = !timed_out;
    retried = !retried;
  }

(* --- the run command's progress and verdict ------------------------- *)

(* The progress telemetry channel: the executing process, never a
   forked worker, appends one snapshot per settled cell, paced
   externally via [capture] — the "engine time" is wall-clock
   microseconds since the campaign started. *)
let progress ~quiet (spec : Spec.t) mirror =
  (* lint: allow L1 — campaign progress is paced in host time on purpose *)
  let t0 = Unix.gettimeofday () in
  let tick =
    match mirror with
    | None -> ignore
    | Some out ->
      let chan = Obs.Telemetry.create ~every_us:1 () in
      Obs.Telemetry.mirror chan out;
      let reg = Obs.Registry.create () in
      Obs.Registry.set_meta reg [ ("campaign", spec.name) ];
      let c_done = Obs.Registry.counter reg "cells.done" in
      let c_failed = Obs.Registry.counter reg "cells.failed" in
      let g_elapsed = Obs.Registry.gauge reg "elapsed_s" in
      let g_rate = Obs.Registry.gauge reg "cells_per_s" in
      fun st ->
        (match st with
         | Store.Done -> Obs.Registry.incr c_done
         | Store.Failed _ -> Obs.Registry.incr c_failed
         | Store.Pending -> ());
        (* lint: allow L1 — campaign progress is paced in host time on purpose *)
        let elapsed = Unix.gettimeofday () -. t0 in
        Obs.Registry.set g_elapsed elapsed;
        let settled = Obs.Registry.counter_value c_done + Obs.Registry.counter_value c_failed in
        Obs.Registry.set g_rate (if elapsed > 0. then float_of_int settled /. elapsed else 0.);
        let (_ : Obs.Telemetry.snapshot) =
          Obs.Telemetry.capture chan ~t_us:(int_of_float (elapsed *. 1e6)) reg
        in
        ()
  in
  fun (p : Spec.point) st ->
    tick st;
    if not quiet then begin
      (match st with
       | Store.Done -> Printf.printf "[done] %s\n" p.id
       | Store.Failed f ->
         Printf.printf "[FAIL] %s (attempt %d%s)\n       %s\n" p.id f.f_retries
           (if f.f_timed_out then ", timed out" else "")
           f.f_msg
       | Store.Pending -> ());
      flush stdout
    end

let report (spec : Spec.t) o =
  Printf.printf
    "campaign %s: %d cell(s): %d already done, %d ran (%d ok, %d failed, %d timed out, %d \
     retried)\n"
    spec.name o.total o.skipped o.ran o.ok o.failed o.timed_out o.retried;
  if o.failed > 0 then Error (Printf.sprintf "%d cell(s) failed" o.failed) else Ok ()
