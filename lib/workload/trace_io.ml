let with_out filename f =
  let oc = open_out filename in
  match f oc with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    raise e

(* Apply [parse] to every meaningful line, with 1-based line numbers in
   errors. *)
let fold_lines filename parse =
  match open_in filename with
  | exception Sys_error msg -> Error msg
  | ic ->
    let rec loop lineno acc =
      match input_line ic with
      | exception End_of_file -> Ok (List.rev acc)
      | exception Sys_error msg -> Error msg
      | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then loop (lineno + 1) acc
        else (
          match parse line with
          | Some v -> loop (lineno + 1) (v :: acc)
          | None -> Error (Printf.sprintf "%s: line %d: cannot parse %S" filename lineno line))
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> loop 1 [])

let write_trace oc trace =
  output_string oc "# dsas reference trace: one address per line\n";
  Array.iter (fun a -> Printf.fprintf oc "%d\n" a) trace

let save_trace filename trace = with_out filename (fun oc -> write_trace oc trace)

let load_trace filename =
  Result.map Array.of_list
    (fold_lines filename (fun line ->
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

let save_events filename events = with_out filename (fun oc -> write_events oc events)

let load_events filename = fold_lines filename parse_event
