let schema = "dsas-telemetry/1"

type snapshot = {
  sn_seq : int;
  sn_t_us : int;
  sn_shard : int option;
  sn_counters : (string * int) list;
  sn_gauges : (string * float) list;
}

type t = {
  every_us : int;
  shard : int option;
  mutable seq : int;
  mutable engine_us : int;  (* running max of non-io event times *)
  mutable due_us : int;
  mutable mirror : out_channel option;
  mutable on_capture : snapshot -> unit;
}

let create ?shard ~every_us () =
  if every_us < 1 then invalid_arg "Telemetry.create: every_us must be positive";
  {
    every_us;
    shard;
    seq = 0;
    engine_us = 0;
    due_us = every_us;
    mirror = None;
    on_capture = ignore;
  }

let mirror t oc = t.mirror <- Some oc

let on_capture t f = t.on_capture <- f

(* --- wire format --- *)

let snapshot_to_json s =
  Json.to_string
    (Json.Obj
       (("schema", Json.String schema)
        :: ("seq", Json.Int s.sn_seq)
        :: ("t_us", Json.Int s.sn_t_us)
        :: ((match s.sn_shard with Some k -> [ ("shard", Json.Int k) ] | None -> [])
            @ List.map (fun (name, v) -> ("c." ^ name, Json.Int v)) s.sn_counters
            @ List.map (fun (name, v) -> ("g." ^ name, Json.Float v)) s.sn_gauges)))

let snapshot_of_json line =
  match Json.flat line with
  | None -> None
  | Some fields ->
    let field k = List.assoc_opt k fields in
    (match (Json.string (field "schema"), Json.int (field "seq"), Json.int (field "t_us")) with
     | Some sc, Some sn_seq, Some sn_t_us when sc = schema && sn_seq >= 0 && sn_t_us >= 0
       ->
       (* Names are stored with a "c." or "g." prefix; a field whose
          value does not fit its section is dropped. *)
       let prefixed prefix value =
         List.filter_map
           (fun (k, v) ->
             if String.length k > 2 && String.starts_with ~prefix k then
               Option.map (fun x -> (String.sub k 2 (String.length k - 2), x)) (value (Some v))
             else None)
           fields
       in
       Some
         {
           sn_seq;
           sn_t_us;
           sn_shard = Json.int (field "shard");
           sn_counters = prefixed "c." Json.int;
           sn_gauges = prefixed "g." Json.number;
         }
     | _ -> None)

(* --- capture --- *)

let capture t ~t_us reg =
  let reg_snap = Registry.snapshot reg in
  let s =
    {
      sn_seq = t.seq;
      sn_t_us = t_us;
      sn_shard = t.shard;
      sn_counters = reg_snap.Registry.counters;
      sn_gauges = reg_snap.Registry.gauges;
    }
  in
  t.seq <- t.seq + 1;
  (match t.mirror with
   | Some oc ->
     output_string oc (snapshot_to_json s);
     output_char oc '\n';
     (* Flush per snapshot: the whole point of the mirror is that a
        tailing [dsas_sim top] sees progress while the run is live. *)
     flush oc
   | None -> ());
  t.on_capture s;
  s

let observe t ~t_us reg =
  if t_us > t.engine_us then t.engine_us <- t_us;
  if t.engine_us >= t.due_us then begin
    let (_ : snapshot) = capture t ~t_us:t.engine_us reg in
    t.due_us <- ((t.engine_us / t.every_us) + 1) * t.every_us
  end

(* --- event-stream tap --- *)

let events_sink t reg =
  let inflight = ref 0 in
  let io_gauge = Registry.gauge reg "io.inflight" in
  let t_gauge = Registry.gauge reg "t_last_us" in
  let counters : (string, Registry.counter) Hashtbl.t = Hashtbl.create 31 in
  let counter_for name =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
      let c = Registry.counter reg ("ev." ^ name) in
      Hashtbl.add counters name c;
      c
  in
  Sink.collect (fun (ev : Event.t) ->
      Registry.incr (counter_for (Event.kind_name ev.kind));
      match ev.kind with
      | Event.Io_start _ ->
        incr inflight;
        Registry.set io_gauge (float_of_int !inflight)
      | Event.Io_done _ | Event.Io_error _ ->
        (* max 0: a spliced or truncated stream may open before our tap *)
        inflight := max 0 (!inflight - 1);
        Registry.set io_gauge (float_of_int !inflight)
      | Event.Io_retry _ ->
        (* io events carry planned device times that run ahead of the
           engine clock; none of them advance telemetry's engine time *)
        ()
      | _ ->
        Registry.set t_gauge (float_of_int ev.t_us);
        observe t ~t_us:ev.t_us reg)

let of_events ?shard ~every_us events =
  let reg = Registry.create () in
  let ch = create ?shard ~every_us () in
  let acc = ref [] in
  on_capture ch (fun s -> acc := s :: !acc);
  let sink = events_sink ch reg in
  Array.iter (fun ev -> Sink.emit sink ev) events;
  Array.of_list (List.rev !acc)

(* --- deterministic merge --- *)

let merge streams =
  let tagged =
    List.concat
      (List.mapi
         (fun i arr ->
           Array.to_list
             (Array.map
                (fun s ->
                  ((match s.sn_shard with Some k -> k | None -> i), s))
                arr))
         (Array.to_list streams))
  in
  let ordered =
    List.stable_sort
      (fun (ka, a) (kb, b) ->
        compare (a.sn_t_us, ka, a.sn_seq) (b.sn_t_us, kb, b.sn_seq))
      tagged
  in
  Array.of_list (List.map snd ordered)

(* --- reading back --- *)

let strict = Artifact.strict ~what:"a telemetry snapshot" ~plural:"telemetry snapshots"

(* --- stream validation --- *)

(* Per producer (shard tag) its last two snapshots, for the check and
   for top's rates; producers in first-appearance order. *)
type checker = {
  limit : int;
  producers : (int option, snapshot option * snapshot) Hashtbl.t;
  mutable order : int option list;  (* newest first *)
  mutable snapshots : int;
  mutable problems : int;
  mutable kept : string list;  (* the first [limit] problems, newest first *)
}

let checker ~limit =
  { limit; producers = Hashtbl.create 8; order = []; snapshots = 0; problems = 0; kept = [] }

let check_snapshot c s =
  let problem fmt =
    Printf.ksprintf
      (fun p ->
        if c.problems < c.limit then c.kept <- p :: c.kept;
        c.problems <- c.problems + 1)
      fmt
  in
  let who = match s.sn_shard with Some k -> Printf.sprintf "shard %d" k | None -> "stream" in
  c.snapshots <- c.snapshots + 1;
  match Hashtbl.find_opt c.producers s.sn_shard with
  | None ->
    if s.sn_seq <> 0 then problem "%s: first snapshot has seq %d, expected 0" who s.sn_seq;
    c.order <- s.sn_shard :: c.order;
    Hashtbl.replace c.producers s.sn_shard (None, s)
  | Some (_, prev) ->
    if s.sn_seq <> prev.sn_seq + 1 then
      problem "%s: seq %d follows seq %d (must be dense and increasing)" who s.sn_seq prev.sn_seq;
    if s.sn_t_us < prev.sn_t_us then
      problem "%s: t_us %d after t_us %d (must be monotone)" who s.sn_t_us prev.sn_t_us;
    Hashtbl.replace c.producers s.sn_shard (Some prev, s)

let check snaps =
  let c = checker ~limit:max_int in
  List.iter (check_snapshot c) snaps;
  List.rev c.kept

(* --- the check and top commands --- *)

let report_check ~json c (r : Artifact.report) =
  Result.bind (strict r) (fun () ->
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("schema", Json.String schema);
                  ("snapshots", Json.Int c.snapshots);
                  ("problems", Json.Int c.problems);
                ]))
      else begin
        Printf.printf "%s: %d telemetry snapshot(s)\n" r.label c.snapshots;
        List.iter (Printf.printf "  %s\n") (List.rev c.kept)
      end;
      if c.problems = 0 then Ok ()
      else Error (Printf.sprintf "%s: %d telemetry stream problem(s)" r.label c.problems))

(* A counter's rate per second of engine time since the previous
   snapshot. *)
let rate prev sn name value =
  match prev with
  | Some p when sn.sn_t_us > p.sn_t_us ->
    let before = Option.value (List.assoc_opt name p.sn_counters) ~default:0 in
    Some (float_of_int (value - before) /. float_of_int (sn.sn_t_us - p.sn_t_us) *. 1e6)
  | _ -> None

let producers c = List.rev_map (fun key -> (key, Hashtbl.find c.producers key)) c.order

let print_top c =
  Printf.printf "%d snapshot(s), %d producer(s)\n" c.snapshots (List.length c.order);
  List.iter
    (fun (key, (prev, sn)) ->
      Printf.printf "%-10s seq %-6d t %8.1f ms\n"
        (match key with None -> "run" | Some s -> Printf.sprintf "shard %d" s)
        sn.sn_seq
        (float_of_int sn.sn_t_us /. 1000.);
      List.iter
        (fun (name, v) ->
          match rate prev sn name v with
          | Some r -> Printf.printf "  %-24s %10d  %12.0f/s\n" name v r
          | None -> Printf.printf "  %-24s %10d\n" name v)
        sn.sn_counters;
      List.iter (fun (name, v) -> Printf.printf "  %-24s %10.1f\n" name v) sn.sn_gauges)
    (producers c);
  flush stdout

let top_to_json c =
  let producer (key, (prev, sn)) =
    Json.Obj
      ((match key with Some s -> [ ("shard", Json.Int s) ] | None -> [])
       @ [
           ("seq", Json.Int sn.sn_seq);
           ("t_us", Json.Int sn.sn_t_us);
           ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) sn.sn_counters));
           ( "rates",
             Json.Obj
               (List.filter_map
                  (fun (n, v) -> Option.map (fun r -> (n, Json.Float r)) (rate prev sn n v))
                  sn.sn_counters) );
           ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) sn.sn_gauges));
         ])
  in
  Json.to_string
    (Json.Obj
       [
         ("snapshots", Json.Int c.snapshots);
         ("producers", Json.List (List.map producer (producers c)));
       ])

(* Lenient: a mirror may still be growing, its last line torn.  [None]
   when no line holds a snapshot. *)
let latest file =
  let c = checker ~limit:0 in
  Result.map
    (fun ((), (r : Artifact.report)) -> if r.parsed = 0 then None else Some c)
    (Artifact.fold_file snapshot_of_json (fun () _ -> check_snapshot c) () file)

let no_snapshots file = Printf.sprintf "%s: no parseable telemetry snapshots" file

let top ~json file =
  match latest file with
  | Error _ as e -> e
  | Ok None -> Error (no_snapshots file)
  | Ok (Some c) ->
    if json then print_endline (top_to_json c) else print_top c;
    Ok ()

(* Each tick prints a stanza, with no cursor tricks, so the output also
   works piped to a log.  A path that does not exist yet is waited for,
   since the run that creates it may start after [top]. *)
let rec follow ~interval ~sleep file =
  let existed = Sys.file_exists file in
  match latest file with
  | Error _ as e when existed -> e
  | shown ->
    (match shown with
     | Ok (Some c) -> print_top c
     | Ok None -> print_endline (no_snapshots file)
     | Error msg -> print_endline msg);
    print_newline ();
    sleep interval;
    follow ~interval ~sleep file
