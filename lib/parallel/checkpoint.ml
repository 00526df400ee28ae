(* Crash-consistent per-shard checkpoints.  A checkpoint records what
   a shard's replay must reproduce before it resumes mid-workload: its
   progress counter, virtual clock, RNG stream position, a digest of
   the engine's state, and the event prefix already emitted: the
   shard's own buffer and a count, since the shard never rewrites the
   cells below it.

   A store is owned by exactly one shard and touched only on its
   worker domain.  The authoritative copy lives in memory; when a
   directory is given, every save is mirrored to disk with the
   tmp+rename writer every artifact uses (Obs.Artifact), so a torn
   write can never be observed — the file is either the old checkpoint
   or the new one.  Loading tolerates any malformed or truncated file by
   reporting no checkpoint at all: resuming from scratch is always
   correct, just slower. *)

exception Inconsistent of string

type state = {
  ck_shard : int;
  ck_progress : int;
  ck_clock_us : int;
  ck_rng : int64;
  ck_payload : int array;
  ck_events : Obs.Event.t array;
  ck_count : int;
}

type store = {
  shard : int;
  latest : state option ref;
  path : string option;
  buf : Buffer.t;  (* every save encodes its file here *)
}

let schema = "dsas-shard-ckpt/1"

let store ?dir ~shard () =
  let path =
    Option.map (fun d -> Filename.concat d (Printf.sprintf "shard%d.ckpt" shard)) dir
  in
  (match (path, dir) with
   | Some _, Some d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755
   | _ -> ());
  { shard; latest = ref None; path; buf = Buffer.create 4096 }

let header st =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.String schema);
         ("shard", Obs.Json.Int st.ck_shard);
         ("progress", Obs.Json.Int st.ck_progress);
         ("clock_us", Obs.Json.Int st.ck_clock_us);
         ("rng", Obs.Json.String (Int64.to_string st.ck_rng));
         ("events", Obs.Json.Int st.ck_count);
         (* one space-joined string keeps the header a flat object *)
         ( "payload",
           Obs.Json.String
             (String.concat " " (Array.to_list (Array.map string_of_int st.ck_payload))) );
       ])

let save t st =
  t.latest := Some st;
  match t.path with
  | None -> ()
  | Some path ->
    let buf = t.buf in
    Buffer.clear buf;
    Buffer.add_string buf (header st);
    Buffer.add_char buf '\n';
    for i = 0 to st.ck_count - 1 do
      Obs.Event.to_buffer buf st.ck_events.(i);
      Buffer.add_char buf '\n'
    done;
    Obs.Artifact.write_atomic path (Buffer.contents buf)

let parse_payload s =
  if String.trim s = "" then Some [||]
  else
    let parts = String.split_on_char ' ' (String.trim s) in
    let ints = List.filter_map int_of_string_opt parts in
    if List.length ints <> List.length parts then None
    else Some (Array.of_list ints)

(* The header on line 1 and its [events] body lines right after it,
   kept raw until the body is whole; lines past those are not read as
   events.  A line number out of step is a blank or comment line the
   fold skipped, and refuses the file like a garbled line or a body cut
   short.  A file whose header names another shard is not this shard's
   checkpoint, whatever its name says. *)
let load_file ~shard path =
  let header line =
    Option.bind (Obs.Json.flat line) (fun fields ->
        let int k = Obs.Json.int (List.assoc_opt k fields) in
        let str k = Obs.Json.string (List.assoc_opt k fields) in
        match
          ( str "schema", int "shard", int "progress", int "clock_us", int "events",
            Option.bind (str "rng") Int64.of_string_opt,
            Option.bind (str "payload") parse_payload )
        with
        | ( Some s, Some ck_shard, Some ck_progress, Some ck_clock_us, Some ck_count,
            Some ck_rng, Some ck_payload )
          when s = schema && ck_shard = shard && ck_progress >= 0 && ck_clock_us >= 0
               && ck_count >= 0 ->
          Some
            ( { ck_shard; ck_progress; ck_clock_us; ck_rng; ck_payload; ck_events = [||]; ck_count },
              0,
              [] )
        | _ -> None)
  in
  let step acc lineno line =
    match acc with
    | None -> if lineno = 1 then header line else None
    | Some (st, k, _) when k = st.ck_count -> acc
    | Some (st, k, body) -> if lineno = k + 2 then Some (st, k + 1, line :: body) else None
  in
  match Obs.Artifact.fold_file Option.some step None path with
  | Ok (Some (st, k, body), _) when k = st.ck_count ->
    let events = List.filter_map Obs.Event.of_json (List.rev body) in
    if List.length events = st.ck_count then Some { st with ck_events = Array.of_list events }
    else None
  | Ok _ | Error _ -> None

let load t =
  match !(t.latest) with
  | Some _ as st -> st
  | None ->
    (match t.path with
     | None -> None
     | Some path ->
       let st = load_file ~shard:t.shard path in
       t.latest := st;
       st)

let clear t =
  t.latest := None;
  match t.path with
  | None -> ()
  | Some path -> (try Sys.remove path with Sys_error _ -> ())
