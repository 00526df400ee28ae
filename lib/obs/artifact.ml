let write_atomic path text =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc text);
  Sys.rename tmp path

let load ~schema decode path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text ->
    Result.map_error
      (Printf.sprintf "%s: %s" path)
      (Result.bind (Json.document ~schema text) decode)

(* --- JSON lines --- *)

type lines = {
  label : string;
  lines : string list;
}

let read_lines path =
  if path = "-" then Ok { label = "<stdin>"; lines = In_channel.input_lines stdin }
  else
    match In_channel.with_open_bin path In_channel.input_lines with
    | exception Sys_error msg -> Error msg
    | lines -> Ok { label = path; lines }

let data t =
  List.mapi (fun i line -> (i + 1, String.trim line)) t.lines
  |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')

let parse_lines ~what ~plural parse t =
  let parsed, bad =
    List.partition_map
      (fun (lineno, line) ->
        match parse line with Some v -> Left (lineno, v) | None -> Right (lineno, line))
      (data t)
  in
  let shown =
    List.filteri (fun i _ -> i < 5) bad
    |> List.map (fun (lineno, line) ->
           Printf.sprintf "line %d: not %s: %S" lineno what
             (if String.length line > 60 then String.sub line 0 60 ^ "..." else line))
  in
  match (bad, parsed) with
  | _ :: _, _ ->
    let n = List.length bad in
    Error
      (Printf.sprintf "%s: %d malformed line(s)\n  %s%s" t.label n (String.concat "\n  " shown)
         (if n > 5 then Printf.sprintf "\n  (... %d more not shown)" (n - 5) else ""))
  | [], [] -> Error (Printf.sprintf "%s: contains no %s" t.label plural)
  | [], _ -> Ok parsed

let lenient parse path =
  match read_lines path with
  | Error _ -> []
  | Ok t -> List.filter_map parse t.lines
