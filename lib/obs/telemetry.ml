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

let parse_lines lines =
  Result.map (List.map snd)
    (Artifact.parse_lines ~what:"a telemetry snapshot" ~plural:"telemetry snapshots"
       snapshot_of_json lines)

let load path = Result.bind (Artifact.read_lines path) parse_lines

(* --- stream validation --- *)

let check snaps =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let by_shard : (int option, snapshot) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
      (match Hashtbl.find_opt by_shard s.sn_shard with
       | None ->
         if s.sn_seq <> 0 then
           problem "%s: first snapshot has seq %d, expected 0"
             (match s.sn_shard with
              | Some k -> Printf.sprintf "shard %d" k
              | None -> "stream")
             s.sn_seq
       | Some prev ->
         let who =
           match s.sn_shard with
           | Some k -> Printf.sprintf "shard %d" k
           | None -> "stream"
         in
         if s.sn_seq <> prev.sn_seq + 1 then
           problem "%s: seq %d follows seq %d (must be dense and increasing)" who
             s.sn_seq prev.sn_seq;
         if s.sn_t_us < prev.sn_t_us then
           problem "%s: t_us %d after t_us %d (must be monotone)" who s.sn_t_us
             prev.sn_t_us);
      Hashtbl.replace by_shard s.sn_shard s)
    snaps;
  List.rev !problems
