(* Every meaningful line through [parse], or the first that fails with
   its 1-based line number. *)
let load filename parse =
  match
    In_channel.with_open_text filename
      (Obs.Artifact.fold ~label:filename parse (fun acc _ v -> v :: acc) [])
  with
  | exception Sys_error msg -> Error msg
  | Error _ as e -> e
  | Ok (_, { Obs.Artifact.first_malformed = (lineno, line) :: _; _ }) ->
    Error (Printf.sprintf "%s: line %d: cannot parse %S" filename lineno line)
  | Ok (values, _) -> Ok (List.rev values)

let write_trace oc trace =
  output_string oc "# dsas reference trace: one address per line\n";
  Array.iter (fun a -> Printf.fprintf oc "%d\n" a) trace

let save_trace filename trace = Out_channel.with_open_text filename (fun oc -> write_trace oc trace)

let load_trace filename =
  Result.map Array.of_list
    (load filename (fun line ->
         match int_of_string_opt line with Some a when a >= 0 -> Some a | _ -> None))

let event_line = function
  | Alloc_stream.Alloc { id; size } -> Printf.sprintf "a %d %d" id size
  | Alloc_stream.Free { id } -> Printf.sprintf "f %d" id

let parse_event line =
  match String.split_on_char ' ' line with
  | [ "a"; id; size ] ->
    (match int_of_string_opt id, int_of_string_opt size with
     | Some id, Some size when size > 0 -> Some (Alloc_stream.Alloc { id; size })
     | _, _ -> None)
  | [ "f"; id ] ->
    (match int_of_string_opt id with
     | Some id -> Some (Alloc_stream.Free { id })
     | None -> None)
  | _ -> None

let write_events oc events =
  output_string oc "# dsas allocation stream: 'a <id> <size>' or 'f <id>' per line\n";
  List.iter (fun e -> output_string oc (event_line e ^ "\n")) events

let save_events filename events =
  Out_channel.with_open_text filename (fun oc -> write_events oc events)

let load_events filename = load filename parse_event
