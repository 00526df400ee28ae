(* The file readers as the commands run them, for tests that need a
   reader's answer rather than its printed report. *)

(* The trace check behind `dsas_sim check`: every line of the file
   through [Obs.Check.feed_text]. *)
let check_file path =
  let c = Obs.Check.create () in
  Result.map
    (fun ((), r) -> Obs.Check.finish c ~line:r.Obs.Artifact.lines)
    (Obs.Artifact.fold_file Option.some (fun () line text -> Obs.Check.feed_text c ~line text) () path)

(* The same check over data lines already in memory. *)
let check_lines lines =
  let c = Obs.Check.create () in
  List.iteri (fun i text -> Obs.Check.feed_text c ~line:(i + 1) text) lines;
  Obs.Check.finish c ~line:(List.length lines)

let temp_file contents =
  let path = Filename.temp_file "dsas_readers" ".jsonl" in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  path

(* The events of a trace file, read strictly. *)
let events_of_file path =
  let acc = ref [] in
  Obs.Query.read_file
    { Obs.Query.add = (fun e -> acc := e.Obs.Query.ev :: !acc); result = (fun () -> List.rev !acc) }
    path

(* The snapshots of a mirror file, read strictly, as `export --format
   telemetry-csv` reads them. *)
let snapshots_of_file path =
  Result.bind
    (Obs.Artifact.fold_file Obs.Telemetry.snapshot_of_json (fun acc _ s -> s :: acc) [] path)
    (fun (snaps, r) -> Result.map (fun () -> List.rev snaps) (Obs.Telemetry.strict r))
