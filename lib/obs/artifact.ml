let write_atomic path text =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc text);
  Sys.rename tmp path

let writable paths =
  match List.find_opt (fun p -> not (Sys.file_exists (Filename.dirname p))) paths with
  | Some p -> Error (p ^ ": No such file or directory")
  | None -> Ok ()

let with_out path f =
  match Option.map open_out path with
  | exception Sys_error msg -> Error msg
  | oc -> Fun.protect ~finally:(fun () -> Option.iter close_out oc) (fun () -> f oc)

let with_jsonl path f =
  with_out path (fun oc -> f (Option.fold ~none:Sink.null ~some:Sink.jsonl oc))

let load ~schema decode path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text ->
    Result.map_error
      (Printf.sprintf "%s: %s" path)
      (Result.bind (Json.document ~schema text) decode)

(* --- JSON lines --- *)

type report = {
  label : string;
  lines : int;
  parsed : int;
  malformed : int;
  first_malformed : (int * string) list;
}

let fold ~label parse step init ic =
  let rec go lineno st parsed malformed first =
    match In_channel.input_line ic with
    | exception Sys_error msg -> Error (label ^ ": " ^ msg)
    | None ->
      Ok (st, { label; lines = lineno; parsed; malformed; first_malformed = List.rev first })
    | Some line ->
      let lineno = lineno + 1 in
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go lineno st parsed malformed first
      else (
        match parse line with
        | Some v -> go lineno (step st lineno v) (parsed + 1) malformed first
        | None ->
          go lineno st parsed (malformed + 1)
            (if malformed < 5 then (lineno, line) :: first else first))
  in
  go 0 init 0 0 []

let fold_file parse step init path =
  if path = "-" then fold ~label:"<stdin>" parse step init stdin
  else
    match In_channel.with_open_bin path (fold ~label:path parse step init) with
    | exception Sys_error msg -> Error msg
    | result -> result

let strict ~what ~plural r =
  if r.malformed > 0 then
    let shown =
      List.map
        (fun (lineno, line) ->
          Printf.sprintf "line %d: not %s: %S" lineno what
            (if String.length line > 60 then String.sub line 0 60 ^ "..." else line))
        r.first_malformed
    in
    Error
      (Printf.sprintf "%s: %d malformed line(s)\n  %s%s" r.label r.malformed
         (String.concat "\n  " shown)
         (if r.malformed > 5 then Printf.sprintf "\n  (... %d more not shown)" (r.malformed - 5)
          else ""))
  else if r.parsed = 0 then Error (Printf.sprintf "%s: contains no %s" r.label plural)
  else Ok ()
