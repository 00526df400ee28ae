type entry = { run : int; ev : Event.t }

type 'r reader = { add : entry -> unit; result : unit -> 'r }

(* The run tag: events before any run_start belong to run 0. *)
let tagged r =
  let run = ref 0 in
  fun (ev : Event.t) ->
    (match ev.kind with Event.Run_start { run = n; _ } -> run := n | _ -> ());
    r.add { run = !run; ev }

let read_events r events =
  List.iter (tagged r) events;
  r.result ()

let read_file r path =
  let feed = tagged r in
  Result.bind
    (Artifact.fold_file Event.of_json (fun () _ ev -> feed ev) () path)
    (fun ((), report) ->
      Result.map r.result (Artifact.strict ~what:"an event" ~plural:"events" report))

(* --- filtering --- *)

let filter ?kinds ?run ?since_us ?until_us e =
  (match kinds with
   | None -> true
   | Some ks -> List.mem (Event.kind_name e.ev.Event.kind) ks)
  && (match run with None -> true | Some r -> e.run = r)
  && (match since_us with None -> true | Some s -> e.ev.Event.t_us >= s)
  && (match until_us with None -> true | Some u -> e.ev.Event.t_us <= u)

(* --- grouping --- *)

type group_key = By_kind | By_run | By_field of string

type agg = Count | Sum of string | Mean of string

let field_value fields name = Json.number (List.assoc_opt name fields)

let field_label fields name =
  match List.assoc_opt name fields with
  | Some (Json.Int n) -> Some (string_of_int n)
  | Some (Json.String s) -> Some s
  | _ -> None  (* an event's fields are ints and strings *)

let group ~key ~agg =
  let label_of e =
    match key with
    | By_kind -> Some (Event.kind_name e.ev.Event.kind)
    | By_run -> Some (string_of_int e.run)
    | By_field f -> field_label (Event.fields_of_kind e.ev.Event.kind) f
  in
  let table : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 16 in
  let add e =
    match label_of e with
    | None -> ()
    | Some label ->
      let contribution =
        match agg with
        | Count -> Some 1.
        | Sum f | Mean f -> field_value (Event.fields_of_kind e.ev.Event.kind) f
      in
      (match contribution with
       | None -> ()
       | Some v ->
         let sum, n =
           match Hashtbl.find_opt table label with
           | Some cell -> cell
           | None ->
             let cell = (ref 0., ref 0) in
             Hashtbl.replace table label cell;
             cell
         in
         sum := !sum +. v;
         incr n)
  in
  let result () =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (* lint: allow L3 — the bindings are sorted by the enclosing List.sort *)
      (Hashtbl.fold
         (fun label (sum, n) acc ->
           match agg with
           | Count | Sum _ -> (label, !sum) :: acc
           | Mean _ -> if !n = 0 then acc else (label, !sum /. float_of_int !n) :: acc)
         table [])
  in
  { add; result }

let top n rows =
  let sorted =
    List.sort
      (fun (la, va) (lb, vb) ->
        match compare vb va with 0 -> compare la lb | c -> c)
      rows
  in
  List.filteri (fun i _ -> i < n) sorted

(* --- pairing --- *)

type pairing = {
  latencies : int list;
  unmatched_starts : int;
  unmatched_dones : int;
}

let req_of (ev : Event.t) = Json.int (List.assoc_opt "req" (Event.fields_of_kind ev.kind))

let known_kinds kinds =
  match List.find_opt (fun k -> not (List.mem k Event.all_kind_names)) kinds with
  | Some kind -> Error (Printf.sprintf "unknown event kind %S" kind)
  | None -> Ok ()

let pair ~start_kind ~done_kind =
  let known = known_kinds [ start_kind; done_kind ] in
  (* req -> the start's t_us, within the current run *)
  let opens : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let latencies = ref [] in
  let unmatched_starts = ref 0 in
  let unmatched_dones = ref 0 in
  let missing_req = ref None in
  let flush_opens () =
    unmatched_starts := !unmatched_starts + Hashtbl.length opens;
    Hashtbl.reset opens
  in
  let add e =
    let name = Event.kind_name e.ev.Event.kind in
    if Result.is_error known then ()
    else if name = "run_start" then flush_opens ()
    else if name = start_kind || name = done_kind then begin
      match req_of e.ev with
      | None -> if !missing_req = None then missing_req := Some name
      | Some req ->
        (* An event kind may be both start and done only if distinct;
           match start first so self-pairing is impossible. *)
        if name = start_kind then begin
          if Hashtbl.mem opens req then incr unmatched_starts (* duplicate start *);
          Hashtbl.replace opens req e.ev.Event.t_us
        end
        else begin
          match Hashtbl.find_opt opens req with
          | None -> incr unmatched_dones
          | Some start_us ->
            Hashtbl.remove opens req;
            latencies := (e.ev.Event.t_us - start_us) :: !latencies
        end
    end
  in
  let result () =
    flush_opens ();
    match (known, !missing_req) with
    | (Error _ as e), _ -> e
    | Ok (), Some name -> Error (Printf.sprintf "event kind %S carries no \"req\" field" name)
    | Ok (), None ->
      Ok
        {
          latencies = List.rev !latencies;
          unmatched_starts = !unmatched_starts;
          unmatched_dones = !unmatched_dones;
        }
  in
  { add; result }

type latency = {
  samples : int;
  min_us : int;
  max_us : int;
  mean_us : float;
  p50_us : int;
  p90_us : int;
  p99_us : int;
  hist : Metrics.Histogram.t;
}

let latency_of p =
  match p.latencies with
  | [] -> None
  | latencies ->
    let hist = Metrics.Histogram.log2 ~max_exponent:30 in
    let stats = Metrics.Stats.create () in
    List.iter
      (fun l ->
        Metrics.Histogram.add hist (max 0 l);
        Metrics.Stats.add stats (float_of_int l))
      latencies;
    Some
      {
        samples = Metrics.Histogram.count hist;
        min_us = int_of_float (Metrics.Stats.min stats);
        max_us = int_of_float (Metrics.Stats.max stats);
        mean_us = Metrics.Stats.mean stats;
        p50_us = Metrics.Histogram.percentile hist 0.50;
        p90_us = Metrics.Histogram.percentile hist 0.90;
        p99_us = Metrics.Histogram.percentile hist 0.99;
        hist;
      }

(* --- summary --- *)

type summary = {
  events : int;
  t_first_us : int;
  t_last_us : int;
  kinds : (string * int) list;
}

let summary () =
  let kinds = group ~key:By_kind ~agg:Count in
  let events = ref 0 and t_first_us = ref 0 and t_last_us = ref 0 in
  let add e =
    incr events;
    if !events = 1 then t_first_us := e.ev.Event.t_us;
    t_last_us := e.ev.Event.t_us;
    kinds.add e
  in
  let result () =
    {
      events = !events;
      t_first_us = !t_first_us;
      t_last_us = !t_last_us;
      kinds = List.map (fun (kind, n) -> (kind, int_of_float n)) (kinds.result ());
    }
  in
  { add; result }

let summary_to_json s =
  Json.to_string
    (Json.Obj
       [
         ("events", Json.Int s.events);
         ("t_first_us", Json.Int s.t_first_us);
         ("t_last_us", Json.Int s.t_last_us);
         ("kinds", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) s.kinds));
       ])

let print_summary s =
  Printf.printf "%d events spanning %d us (t_us %d .. %d)\n" s.events
    (s.t_last_us - s.t_first_us) s.t_first_us s.t_last_us;
  List.iter (fun (k, n) -> Printf.printf "  %-16s %d\n" k n) s.kinds

(* --- bridges --- *)

let metrics_sink reg =
  let opens : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let feed (ev : Event.t) =
    Registry.incr (Registry.counter reg ("ev." ^ Event.kind_name ev.kind));
    Registry.set (Registry.gauge reg "t_last_us") (float_of_int ev.t_us);
    match ev.kind with
    | Event.Run_start _ -> Hashtbl.reset opens
    | Event.Io_start { req; _ } -> Hashtbl.replace opens req ev.t_us
    | Event.Io_done { req; _ } ->
      (match Hashtbl.find_opt opens req with
       | None -> ()
       | Some start ->
         Hashtbl.remove opens req;
         let lat = max 0 (ev.t_us - start) in
         Metrics.Histogram.add
           (Registry.histogram reg "io_latency_us" ~default:(fun () ->
                Metrics.Histogram.log2 ~max_exponent:30))
           lat;
         Metrics.Stats.add (Registry.stats reg "io_latency_us") (float_of_int lat))
    | _ -> ()
  in
  Sink.collect feed

(* --- the query command's two reports --- *)

let group_key_of_string = function
  | "kind" -> Ok By_kind
  | "run" -> Ok By_run
  | s when String.length s > 6 && String.sub s 0 6 = "field:" ->
    Ok (By_field (String.sub s 6 (String.length s - 6)))
  | s -> Error (Printf.sprintf "bad --group-by %S: want kind, run, or field:NAME" s)

let agg_of_string s =
  match String.split_on_char ':' s with
  | [ "count" ] -> Ok Count
  | [ "sum"; f ] when f <> "" -> Ok (Sum f)
  | [ "mean"; f ] when f <> "" -> Ok (Mean f)
  | _ -> Error (Printf.sprintf "bad --agg %S: want count, sum:FIELD, or mean:FIELD" s)

(* The flags are judged before the file is opened, so a bad flag is
   reported at once, also over a bad file. *)
let report_groups ~keep ~key ~agg ~limit ~json file =
  let ( let* ) = Result.bind in
  let* key = Option.fold ~none:(Ok By_kind) ~some:group_key_of_string key in
  let* agg = agg_of_string agg in
  let g = group ~key ~agg in
  let kept = ref 0 in
  let* rows = read_file { g with add = (fun e -> if keep e then (incr kept; g.add e)) } file in
  let rows = match limit with None -> rows | Some n -> top n rows in
  if json then
    print_endline
      (Json.to_string (Json.Obj (List.map (fun (label, v) -> (label, Json.Float v)) rows)))
  else begin
    Printf.printf "%d event(s) after filters\n" !kept;
    List.iter
      (fun (label, v) ->
        match agg with
        | Mean _ -> Printf.printf "%-24s %.3f\n" label v
        | Count | Sum _ -> Printf.printf "%-24s %d\n" label (int_of_float v))
      rows
  end;
  Ok ()

let latency_to_json p l =
  let latency =
    match l with
    | None -> []
    | Some l ->
      let buckets =
        Array.to_list (Metrics.Histogram.bucket_counts l.hist)
        |> List.filter (fun (_, n) -> n > 0)
        |> List.map (fun (label, n) ->
               Json.Obj [ ("bucket", Json.String label); ("count", Json.Int n) ])
      in
      [
        ( "latency_us",
          Json.Obj
            [
              ("samples", Json.Int l.samples);
              ("min", Json.Int l.min_us);
              ("mean", Json.Float l.mean_us);
              ("p50", Json.Int l.p50_us);
              ("p90", Json.Int l.p90_us);
              ("p99", Json.Int l.p99_us);
              ("max", Json.Int l.max_us);
              ("buckets", Json.List buckets);
            ] );
      ]
  in
  Json.to_string
    (Json.Obj
       ([
          ("pairs", Json.Int (List.length p.latencies));
          ("unmatched_starts", Json.Int p.unmatched_starts);
          ("unmatched_dones", Json.Int p.unmatched_dones);
        ]
       @ latency))

let print_pairing p l ~start_kind ~done_kind ~percentiles =
  Printf.printf "paired %d %s->%s (%d unmatched start(s), %d unmatched done(s))\n"
    (List.length p.latencies) start_kind done_kind p.unmatched_starts p.unmatched_dones;
  match l with
  | None -> print_endline "no pairs: no latency distribution"
  | Some l ->
    Printf.printf "latency_us: samples=%d min=%d mean=%.1f max=%d\n" l.samples l.min_us
      l.mean_us l.max_us;
    if percentiles then begin
      Printf.printf "  p50 %d\n  p90 %d\n  p99 %d\n" l.p50_us l.p90_us l.p99_us;
      Array.iter
        (fun (label, n) -> if n > 0 then Printf.printf "  %-16s %d\n" label n)
        (Metrics.Histogram.bucket_counts l.hist)
    end

let report_pairs ~keep ~spec ~percentiles ~json file =
  let ( let* ) = Result.bind in
  let* start_kind, done_kind =
    match String.split_on_char ',' spec with
    | [ start_kind; done_kind ] -> Ok (start_kind, done_kind)
    | _ -> Error (Printf.sprintf "bad --pair %S: want START,DONE" spec)
  in
  let* () = known_kinds [ start_kind; done_kind ] in
  let p = pair ~start_kind ~done_kind in
  let* pairing = read_file { p with add = (fun e -> if keep e then p.add e) } file in
  let* p = pairing in
  let l = latency_of p in
  if json then print_endline (latency_to_json p l)
  else print_pairing p l ~start_kind ~done_kind ~percentiles;
  Ok ()
