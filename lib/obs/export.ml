(* Converters from our own artifacts to standard tooling formats.
   Chrome trace-event JSON (Perfetto, chrome://tracing), folded stacks
   -> self-contained flamegraph SVG, telemetry -> CSV.  Deterministic
   transformations; the file handling is [export]'s alone. *)

(* --- Chrome trace events --- *)

(* The mapping (documented in DESIGN §11):
     run segment            -> process (pid = run id)
     shard field            -> thread (tid = shard + 1; 0 = unsharded)
     io_start/io_done/error -> async span "b"/"e", cat "io", id = req
     watchdog fire/clear    -> async span "b"/"e", cat "watchdog", id = rule
     everything else        -> instant "i", scope "t", payload as args
   Timestamps are already microseconds, Chrome's native unit.

   Records are written by one Event writer of about [chunk] bytes, an
   instant's args by Event's field writer.  Whenever the writer passes
   [chunk] its bytes go to [emit]: a list of chunks joined once at the
   end for {!chrome_of_events}, so at its peak it holds its output twice
   and one writer, never a writer grown past the output; the output
   channel itself for the export command.  A record's fixed text is one
   string, a track's [,"pid":P,"tid":T,"ts":] is written when the track
   changes and copied into each record, and kind names, io names and
   the announced labels are fixed identifiers, written without an
   escape scan. *)

let chunk = 65536

(* The record writer: feed it each event, then finish it once. *)
let chrome emit =
  (* room past [chunk] for the record that crosses it *)
  let w = Event.writer (chunk + 1024) in
  let add s = Event.add_text w s in
  let int n = Event.add_int w n in
  let first = ref true in
  (* (pid, tid) pairs announced, with tid -1 for the process itself; an
     event on the previous event's track looks nothing up *)
  let named = Hashtbl.create 16 and track = ref None in
  (* The first record is always an announcement, so only an
     announcement can lack the comma before it. *)
  let announce key ~pid ~tid name label =
    if not (Hashtbl.mem named key) then begin
      Hashtbl.replace named key ();
      if !first then first := false else add ",";
      add {|{"name":"|};
      add name;
      add {|","ph":"M","pid":|};
      int pid;
      add {|,"tid":|};
      int tid;
      add {|,"args":{"name":"|};
      label ();
      add {|"}}|}
    end
  in
  (* the current track's [,"pid":P,"tid":T,"ts":] *)
  let at = ref "" and tw = Event.writer 64 in
  add {|{"traceEvents":[|};
  let run = ref 0 in
  let event (ev : Event.t) =
    (match ev.kind with Event.Run_start { run = r; _ } -> run := r | _ -> ());
    let pid = !run in
    let tid =
      match ev.kind with
      | Event.Shard_crash { shard; _ } | Event.Shard_restart { shard; _ }
      | Event.Shard_checkpoint { shard; _ } -> shard + 1
      | _ -> 0
    in
    (match !track with
     | Some (p, t) when p = pid && t = tid -> ()
     | _ ->
       track := Some (pid, tid);
       Event.add_text tw {|,"pid":|};
       Event.add_int tw pid;
       Event.add_text tw {|,"tid":|};
       Event.add_int tw tid;
       Event.add_text tw {|,"ts":|};
       at := Event.take tw;
       announce (pid, -1) ~pid ~tid:0 "process_name" (fun () ->
           add "run ";
           int pid);
       announce (pid, tid) ~pid ~tid "thread_name" (fun () ->
           if tid = 0 then add "engine"
           else begin
             add "shard ";
             int (tid - 1)
           end));
    (match ev.kind with
     | Event.Io_start { req; page; io } | Event.Io_done { req; page; io }
     | Event.Io_error { req; page; io; _ } ->
       add {|,{"name":"|};
       add (Event.io_name io);
       add
         (match ev.kind with
          | Event.Io_start _ -> {|","cat":"io","ph":"b","id":|}
          | _ -> {|","cat":"io","ph":"e","id":|});
       int req;
       add !at;
       int ev.t_us;
       add {|,"args":{"req":|};
       int req;
       add {|,"page":|};
       int page;
       (match ev.kind with
        | Event.Io_error { attempts; _ } ->
          add {|,"error":"terminal","attempts":|};
          int attempts
        | _ -> ());
       add "}}"
     | Event.Watchdog_fire { rule; snapshots } | Event.Watchdog_clear { rule; snapshots } ->
       add {|,{"name":|};
       Event.add_quoted w rule;
       add
         (match ev.kind with
          | Event.Watchdog_fire _ -> {|,"cat":"watchdog","ph":"b","id":|}
          | _ -> {|,"cat":"watchdog","ph":"e","id":|});
       Event.add_quoted w rule;
       add !at;
       int ev.t_us;
       add {|,"args":{"snapshots":|};
       int snapshots;
       add "}}"
     | kind ->
       add {|,{"name":"|};
       add (Event.kind_name kind);
       add {|","cat":"engine","ph":"i","s":"t"|};
       add !at;
       int ev.t_us;
       add {|,"args":|};
       Event.add_fields w kind;
       add "}");
    if Event.written w >= chunk then emit (Event.take w)
  in
  let finish () =
    add {|],"displayTimeUnit":"ms"}|};
    emit (Event.take w)
  in
  (event, finish)

let chrome_of_events events =
  let chunks = ref [] in
  let event, finish = chrome (fun chunk -> chunks := chunk :: !chunks) in
  List.iter event events;
  finish ();
  String.concat "" (List.rev !chunks)

(* --- folded stacks -> flamegraph SVG --- *)

type frame = {
  fr_name : string;
  mutable fr_self : float;
  mutable fr_total : float;
  mutable fr_children : frame list;  (* insertion order, reversed *)
}

let fresh_frame name = { fr_name = name; fr_self = 0.; fr_total = 0.; fr_children = [] }

let rec add_stack frame path weight =
  frame.fr_total <- frame.fr_total +. weight;
  match path with
  | [] -> frame.fr_self <- frame.fr_self +. weight
  | head :: rest ->
    let child =
      match List.find_opt (fun f -> f.fr_name = head) frame.fr_children with
      | Some f -> f
      | None ->
        let f = fresh_frame head in
        frame.fr_children <- frame.fr_children @ [ f ];
        f
    in
    add_stack child rest weight

(* One folded-stacks line, trimmed, into the tree under [root]; blank
   and ['#'] lines, and a line whose weight is not a positive finite
   number, are skipped. *)
let add_folded root line =
  match String.rindex_opt line ' ' with
  | None -> ()
  | Some _ when line.[0] = '#' -> ()
  | Some sp ->
    let stack = String.trim (String.sub line 0 sp) in
    let weight = String.sub line (sp + 1) (String.length line - sp - 1) in
    (match float_of_string_opt weight with
     | Some w when Float.is_finite w && w > 0. && stack <> "" ->
       add_stack root (String.split_on_char ';' stack) w
     | _ -> ())

let svg_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Deterministic warm palette keyed on the frame name, so reruns (and
   different machines) paint identical SVGs. *)
let color_of name =
  let h = ref 17 in
  String.iter (fun c -> h := ((!h * 31) + Char.code c) land 0xffffff) name;
  let r = 205 + (!h mod 50) in
  let g = 60 + (!h / 50 mod 130) in
  let b = 10 + (!h / 6500 mod 45) in
  Printf.sprintf "rgb(%d,%d,%d)" r g b

let rec depth_of frame =
  List.fold_left (fun acc f -> max acc (1 + depth_of f)) 1 frame.fr_children

let render_flamegraph ~title root =
  if root.fr_children = [] then Error "no valid folded-stack lines (expected \"a;b;c WEIGHT\")"
  else begin
    let width = 1200. in
    let row_h = 17. in
    let top_pad = 36. in
    let depth = depth_of root - 1 in
    (* root itself is synthetic *)
    let height = top_pad +. (float_of_int (max depth 1) *. row_h) +. 12. in
    let buf = Buffer.create 8192 in
    Printf.bprintf buf
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" height=\"%.0f\" \
       viewBox=\"0 0 %.0f %.0f\" font-family=\"monospace\" font-size=\"11\">\n"
      width height width height;
    Printf.bprintf buf
      "<rect x=\"0\" y=\"0\" width=\"%.0f\" height=\"%.0f\" fill=\"#f8f8f8\"/>\n" width
      height;
    Printf.bprintf buf
      "<text x=\"%.0f\" y=\"22\" text-anchor=\"middle\" font-size=\"15\">%s</text>\n"
      (width /. 2.) (svg_escape title);
    let total = root.fr_total in
    (* Bottom-up: level 0 sits at the bottom of the image. *)
    let rec paint frame ~x ~level =
      let w = frame.fr_total /. total *. width in
      let y = height -. 12. -. (float_of_int (level + 1) *. row_h) in
      if w >= 0.5 && level >= 0 then begin
        Printf.bprintf buf
          "<g><title>%s (%.6g, %.2f%%)</title><rect x=\"%.2f\" y=\"%.2f\" \
           width=\"%.2f\" height=\"%.2f\" fill=\"%s\" stroke=\"#f8f8f8\" \
           stroke-width=\"0.5\"/>"
          (svg_escape frame.fr_name) frame.fr_total
          (frame.fr_total /. total *. 100.)
          x y w (row_h -. 1.) (color_of frame.fr_name);
        if w >= 40. then
          Printf.bprintf buf "<text x=\"%.2f\" y=\"%.2f\">%s</text>" (x +. 3.)
            (y +. 12.)
            (svg_escape
               (let max_chars = int_of_float (w /. 7.) in
                if String.length frame.fr_name > max_chars then
                  String.sub frame.fr_name 0 (max 1 (max_chars - 2)) ^ ".."
                else frame.fr_name));
        Buffer.add_string buf "</g>\n"
      end;
      let child_x = ref x in
      List.iter
        (fun child ->
          paint child ~x:!child_x ~level:(level + 1);
          child_x := !child_x +. (child.fr_total /. total *. width))
        frame.fr_children
    in
    (* paint the root's children at level 0; the synthetic root is skipped *)
    let x = ref 0. in
    List.iter
      (fun child ->
        paint child ~x:!x ~level:0;
        x := !x +. (child.fr_total /. total *. width))
      root.fr_children;
    Buffer.add_string buf "</svg>\n";
    Ok (Buffer.contents buf)
  end

let flamegraph ?(title = "flamegraph") text =
  let root = fresh_frame "" in
  List.iter (fun line -> add_folded root (String.trim line)) (String.split_on_char '\n' text);
  render_flamegraph ~title root

(* --- telemetry -> CSV --- *)

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let telemetry_csv snaps =
  let module SS = Set.Make (String) in
  let counters, gauges =
    List.fold_left
      (fun (cs, gs) (s : Telemetry.snapshot) ->
        ( List.fold_left (fun acc (k, _) -> SS.add k acc) cs s.Telemetry.sn_counters,
          List.fold_left (fun acc (k, _) -> SS.add k acc) gs s.Telemetry.sn_gauges ))
      (SS.empty, SS.empty) snaps
  in
  let counter_cols = SS.elements counters in
  let gauge_cols = SS.elements gauges in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "seq,t_us,shard";
  List.iter (fun c -> Buffer.add_string buf ("," ^ csv_escape ("c." ^ c))) counter_cols;
  List.iter (fun g -> Buffer.add_string buf ("," ^ csv_escape ("g." ^ g))) gauge_cols;
  Buffer.add_char buf '\n';
  List.iter
    (fun (s : Telemetry.snapshot) ->
      Printf.bprintf buf "%d,%d,%s" s.Telemetry.sn_seq s.Telemetry.sn_t_us
        (match s.Telemetry.sn_shard with Some k -> string_of_int k | None -> "");
      List.iter
        (fun c ->
          Buffer.add_char buf ',';
          match List.assoc_opt c s.Telemetry.sn_counters with
          | Some v -> Buffer.add_string buf (string_of_int v)
          | None -> ())
        counter_cols;
      List.iter
        (fun g ->
          Buffer.add_char buf ',';
          match List.assoc_opt g s.Telemetry.sn_gauges with
          | Some v -> Buffer.add_string buf (Printf.sprintf "%g" v)
          | None -> ())
        gauge_cols;
      Buffer.add_char buf '\n')
    snaps;
  Buffer.contents buf

type format = Chrome | Flamegraph | Telemetry_csv

let formats = [ ("chrome", Chrome); ("flamegraph", Flamegraph); ("telemetry-csv", Telemetry_csv) ]

(* Read [file] and hand the rendered output to [emit]: chunk by chunk
   as the trace is read for [Chrome], whole for the others. *)
let render format file emit =
  match format with
  | Chrome ->
    let event, finish = chrome emit in
    Query.read_file { Query.add = (fun e -> event e.Query.ev); result = finish } file
  | Flamegraph ->
    let root = fresh_frame "" in
    Result.bind (Artifact.fold_file Option.some (fun () _ -> add_folded root) () file)
      (fun ((), (r : Artifact.report)) ->
        render_flamegraph ~title:"flamegraph" root
        |> Result.map_error (Printf.sprintf "%s: %s" r.label)
        |> Result.map emit)
  | Telemetry_csv ->
    Result.bind (Artifact.fold_file Telemetry.snapshot_of_json (fun acc _ s -> s :: acc) [] file)
      (fun (snaps, r) ->
        Result.map (fun () -> emit (telemetry_csv (List.rev snaps))) (Telemetry.strict r))

let export format ~out file =
  Result.bind (Artifact.writable (Option.to_list out)) (fun () ->
      match out with
      | None -> render format file print_string
      | Some path ->
        let tmp = path ^ ".tmp" in
        (match Out_channel.with_open_bin tmp (fun oc -> render format file (output_string oc)) with
         | exception Sys_error msg -> Error msg
         | Ok () -> Ok (Sys.rename tmp path)
         | Error _ as e ->
           Sys.remove tmp;
           e))
