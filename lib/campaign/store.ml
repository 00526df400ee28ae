(* The on-disk campaign store.

   Layout, all under one campaign directory:

     spec.json            the sweep spec, verbatim
     manifest.json        identity: name, cell, config hash, git version
     cells.jsonl          append-only status log, one line per attempt
     cells/<id>.metrics.json   one dsas-metrics/1 artifact per done cell
     cells/<id>.trace.jsonl    sampled trace, when the spec asks for one
     cells/<id>.error.txt      diagnostic from a failed attempt

   The status log is the checkpoint: the last line per cell id wins, so
   a killed campaign resumes by replaying the log and re-running only
   cells that never reached "done".  Metrics files are written to a
   temporary name and renamed, so a crash mid-write never leaves a
   half-artifact that parses. *)

type failure = {
  f_msg : string;
  f_timed_out : bool;  (* the attempt was killed at the wall-clock limit *)
  f_retries : int;  (* failed attempts before this one *)
}

type status =
  | Pending
  | Done
  | Failed of failure

let failed ?(timed_out = false) ?(retries = 0) msg =
  Failed { f_msg = msg; f_timed_out = timed_out; f_retries = retries }

let manifest_schema = "dsas-campaign/1"

let spec_path dir = Filename.concat dir "spec.json"

let manifest_path dir = Filename.concat dir "manifest.json"

let log_path dir = Filename.concat dir "cells.jsonl"

let cells_dir dir = Filename.concat dir "cells"

let metrics_path ~dir id = Filename.concat (cells_dir dir) (id ^ ".metrics.json")

let trace_path ~dir id = Filename.concat (cells_dir dir) (id ^ ".trace.jsonl")

let error_path ~dir id = Filename.concat (cells_dir dir) (id ^ ".error.txt")

let mkdir_p path =
  let rec make p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      make (Filename.dirname p);
      (try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  make path

let manifest_json ~spec ~git =
  let points = Spec.points spec in
  Obs.Json.to_string
    (Obs.Json.Obj
       ([
          ("schema", Obs.Json.String manifest_schema);
          ("name", Obs.Json.String spec.Spec.name);
          ("cell", Obs.Json.String spec.Spec.cell);
          ("config_hash", Obs.Json.String (Spec.config_hash spec));
          ("total_cells", Obs.Json.Int (List.length points));
        ]
        @ match git with None -> [] | Some g -> [ ("git", Obs.Json.String g) ]))

(* Create or re-open.  Re-opening an existing directory is the resume
   path: the stored spec must hash identically, otherwise the done/
   pending bookkeeping would silently describe a different grid. *)
let init ~dir ~spec ~git =
  if Sys.file_exists (spec_path dir) then begin
    match Spec.load (spec_path dir) with
    | Error msg -> Error (Printf.sprintf "existing %s: %s" (spec_path dir) msg)
    | Ok existing ->
      if Spec.config_hash existing = Spec.config_hash spec then Ok ()
      else
        Error
          (Printf.sprintf
             "%s already holds campaign %S with a different grid (config %s, \
              asked for %s); use a fresh directory"
             dir existing.Spec.name
             (Spec.config_hash existing) (Spec.config_hash spec))
  end
  else begin
    mkdir_p (cells_dir dir);
    Obs.Artifact.write_atomic (spec_path dir) (Spec.to_json spec ^ "\n");
    Obs.Artifact.write_atomic (manifest_path dir) (manifest_json ~spec ~git ^ "\n");
    Ok ()
  end

let load_spec ~dir = Spec.load (spec_path dir)

let append_log ~dir line =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 (log_path dir)
  in
  output_string oc (line ^ "\n");
  close_out oc

(* [t] is an optional wall-clock stamp (Unix epoch seconds, supplied
   by the executor — the store itself never reads a clock); older logs
   without it replay with no timing. *)
let stamp t = match t with Some t -> [ ("t", Obs.Json.Float t) ] | None -> []

let record ?t ~dir id status =
  let fields =
    match status with
    | Done -> [ ("status", Obs.Json.String "done") ]
    | Failed f ->
      (* [retries] is always written; [timed_out] only when set (an
         int: log lines are flat objects of ints, floats and strings) —
         older logs without either field replay with the defaults. *)
      [
        ("status", Obs.Json.String "failed");
        ("error", Obs.Json.String f.f_msg);
        ("retries", Obs.Json.Int f.f_retries);
      ]
      @ if f.f_timed_out then [ ("timed_out", Obs.Json.Int 1) ] else []
    | Pending -> [ ("status", Obs.Json.String "pending") ]
  in
  append_log ~dir
    (Obs.Json.to_string (Obs.Json.Obj ((("cell", Obs.Json.String id) :: fields) @ stamp t)))

(* A "running" line marks the moment an attempt was spawned.  It never
   changes a cell's resume status — [statuses] replays it as Pending —
   but [timings] mines it for wall-clock start/elapsed, which is how
   [campaign status] and [top] spot stragglers. *)
let record_start ~dir ~t id =
  append_log ~dir
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("cell", Obs.Json.String id); ("status", Obs.Json.String "running");
            ("t", Obs.Json.Float t) ]))

(* The log, replayed: [f] sees every line that parses as a flat object
   with string "cell" and "status" fields, in order.  Lines that fail to
   parse are skipped — the log is append-only and a torn final line
   from a kill is expected — and so is an unreadable log. *)
let iter_log ~dir f =
  let entry line =
    Option.bind (Obs.Json.flat line) (fun fields ->
        let str k = Obs.Json.string (List.assoc_opt k fields) in
        match (str "cell", str "status") with
        | Some id, Some status -> Some (id, status, fields)
        | _ -> None)
  in
  match Obs.Artifact.fold_file entry (fun () _ e -> f e) () (log_path dir) with
  | Ok _ | Error _ -> ()

(* Last line per cell wins; unknown ids (from an older grid) are
   ignored.  A "failed" line whose [retries] is not a count is as
   unreadable as a torn line, and skipped: trusting it would reset the
   cell's retry budget. *)
let statuses ~dir spec =
  let table = Hashtbl.create 64 in
  iter_log ~dir (fun (id, status, fields) ->
      match status with
      | "done" -> Hashtbl.replace table id Done
      | "failed" -> (
        let msg = Option.value (Obs.Json.string (List.assoc_opt "error" fields)) ~default:"failed" in
        let timed_out = Obs.Json.int (List.assoc_opt "timed_out" fields) = Some 1 in
        match List.assoc_opt "retries" fields with
        | None -> Hashtbl.replace table id (failed ~timed_out msg)
        | Some (Obs.Json.Int retries) when retries >= 0 ->
          Hashtbl.replace table id (failed ~timed_out ~retries msg)
        | Some _ -> ())
      (* a running attempt is not a completion: for resume purposes
         the cell is still pending *)
      | "pending" | "running" -> Hashtbl.replace table id Pending
      | _ -> ());
  List.map
    (fun (p : Spec.point) ->
      match Hashtbl.find_opt table p.Spec.id with
      | Some st -> (p, st)
      | None -> (p, Pending))
    (Spec.points spec)

(* --- wall-clock timings --------------------------------------------- *)

type timing = { t_started : float option; t_finished : float option }

(* Replay the log for timestamps: a "running" line opens an attempt
   (clearing any earlier finish), "done"/"failed" closes it, "pending"
   re-queues the cell and forgets both.  Cells appear in first-mention
   order; lines without a "t" field (older logs) contribute [None]. *)
let timings ~dir =
  let table : (string, timing) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  iter_log ~dir (fun (id, status, fields) ->
      let t = Obs.Json.number (List.assoc_opt "t" fields) in
      let prev =
        match Hashtbl.find_opt table id with
        | Some tm -> tm
        | None ->
          order := id :: !order;
          { t_started = None; t_finished = None }
      in
      let next =
        match status with
        | "running" -> { t_started = t; t_finished = None }
        | "done" | "failed" -> { prev with t_finished = t }
        | "pending" -> { t_started = None; t_finished = None }
        | _ -> prev
      in
      Hashtbl.replace table id next);
  List.rev_map (fun id -> (id, Hashtbl.find table id)) !order

(* --- loading results ------------------------------------------------ *)

type loaded = {
  point : Spec.point;
  status : status;
  metrics : (string * float) list;  (* flattened; [] unless Done *)
}

(* Flatten a dsas-metrics/1 document to scalar bindings: counters and
   gauges by name; stats as .mean/.min/.max/.count; histograms as
   .p50/.p90/.p99/.count.  The series section, always empty, is skipped. *)
let flatten_metrics doc =
  let section name f =
    match Obs.Json.member name doc with
    | Some (Obs.Json.Obj fields) -> List.concat_map f fields
    | _ -> []
  in
  let scalar (k, v) = match Obs.Json.number (Some v) with Some f -> [ (k, f) ] | None -> [] in
  let sub keys (k, v) =
    List.filter_map
      (fun key -> Option.map (fun f -> (k ^ "." ^ key, f)) (Obs.Json.number (Obs.Json.member key v)))
      keys
  in
  section "counters" scalar
  @ section "gauges" scalar
  @ section "stats" (sub [ "mean"; "min"; "max"; "count" ])
  @ section "histograms" (sub [ "p50"; "p90"; "p99"; "count" ])

let load_metrics path =
  Obs.Artifact.load ~schema:"dsas-metrics/1" (fun doc -> Ok (flatten_metrics doc)) path

(* Strict on done cells: a cell the log claims done must have a
   readable artifact — a missing or torn metrics file is a store
   corruption worth surfacing, not an empty row. *)
let load ~dir =
  match load_spec ~dir with
  | Error msg -> Error msg
  | Ok spec ->
    let rec walk acc = function
      | [] -> Ok (List.rev acc)
      | ((p : Spec.point), st) :: rest ->
        (match st with
         | Done ->
           (match load_metrics (metrics_path ~dir p.Spec.id) with
            | Ok metrics -> walk ({ point = p; status = st; metrics } :: acc) rest
            | Error msg -> Error msg)
         | _ -> walk ({ point = p; status = st; metrics = [] } :: acc) rest)
    in
    Result.map (fun cells -> (spec, cells)) (walk [] (statuses ~dir spec))

let git_describe () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception _ -> None
  | ic ->
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    let (_ : Unix.process_status) = Unix.close_process_in ic in
    (match line with Some l when l <> "" -> Some l | _ -> None)

(* --- the status command ---------------------------------------------- *)

let print_status ~json ~dir (spec : Spec.t) =
  let sts = statuses ~dir spec in
  let count p = List.length (List.filter (fun (_, s) -> p s) sts) in
  let n_done = count (fun s -> s = Done) in
  let n_failed = count (function Failed _ -> true | _ -> false) in
  let n_pending = count (fun s -> s = Pending) in
  (* A cell the log shows Pending but with an open attempt is running
     right now (or its worker died without a completion line). *)
  let timings = timings ~dir in
  (* lint: allow L1 — a running cell's elapsed time is host time on purpose *)
  let now = Unix.gettimeofday () in
  let timing id = List.assoc_opt id timings in
  let running id st =
    st = Pending
    && match timing id with Some { t_started = Some _; t_finished = None } -> true | _ -> false
  in
  let elapsed id st =
    match (timing id, st) with
    | Some { t_started = Some s; t_finished = Some f }, _ -> Some (f -. s)
    | Some { t_started = Some s; t_finished = None }, Pending -> Some (now -. s)
    | _ -> None
  in
  if json then
    let cell ((p : Spec.point), st) =
      let status =
        match st with
        | Done -> "done"
        | Failed _ -> "failed"
        | Pending -> if running p.id st then "running" else "pending"
      in
      let started =
        match timing p.id with
        | Some { t_started = Some s; _ } -> [ ("started", Obs.Json.Float s) ]
        | _ -> []
      in
      Obs.Json.Obj
        ([ ("id", Obs.Json.String p.id); ("status", Obs.Json.String status) ]
         @ started
         @ match elapsed p.id st with Some e -> [ ("elapsed_s", Obs.Json.Float e) ] | None -> [])
    in
    print_endline
      (Obs.Json.to_string
         (Obs.Json.Obj
            [
              ("name", Obs.Json.String spec.name);
              ("cell", Obs.Json.String spec.cell);
              ("total", Obs.Json.Int (List.length sts));
              ("done", Obs.Json.Int n_done);
              ("failed", Obs.Json.Int n_failed);
              ("pending", Obs.Json.Int n_pending);
              ("cells", Obs.Json.List (List.map cell sts));
            ]))
  else begin
    Printf.printf "campaign %s (cell %s): %d cell(s): %d done, %d failed, %d pending\n"
      spec.name spec.cell (List.length sts) n_done n_failed n_pending;
    List.iter
      (fun ((p : Spec.point), s) ->
        match s with
        | Failed f ->
          Printf.printf "  FAIL %s (attempt %d%s%s): %s\n" p.id f.f_retries
            (if f.f_timed_out then ", timed out" else "")
            (match elapsed p.id s with Some e -> Printf.sprintf ", %.1fs" e | None -> "")
            f.f_msg
        | Pending when running p.id s ->
          Printf.printf "  RUN  %s (%.1fs)\n" p.id (Option.value (elapsed p.id s) ~default:0.)
        | _ -> ())
      sts
  end
