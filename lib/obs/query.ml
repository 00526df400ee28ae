type entry = { line : int; run : int; ev : Event.t }

type t = entry list

let tag numbered_events =
  let _, entries =
    List.fold_left
      (fun (prev_run, acc) (line, (ev : Event.t)) ->
        let run =
          match ev.kind with Event.Run_start { run; _ } -> run | _ -> prev_run
        in
        (run, { line; run; ev } :: acc))
      (0, []) numbered_events
  in
  List.rev entries

let of_events events = tag (List.mapi (fun i ev -> (i + 1, ev)) events)

let load path =
  Result.bind (Artifact.read_lines path) (fun lines ->
      Result.map tag (Artifact.parse_lines ~what:"an event" ~plural:"events" Event.of_json lines))

let length t = List.length t

let entries t = t

let events t = List.map (fun e -> e.ev) t

(* --- filtering --- *)

let filter ?kinds ?run ?since_us ?until_us t =
  let keep e =
    (match kinds with
     | None -> true
     | Some ks -> List.mem (Event.kind_name e.ev.Event.kind) ks)
    && (match run with None -> true | Some r -> e.run = r)
    && (match since_us with None -> true | Some s -> e.ev.Event.t_us >= s)
    && (match until_us with None -> true | Some u -> e.ev.Event.t_us <= u)
  in
  List.filter keep t

(* --- grouping --- *)

type group_key = By_kind | By_run | By_field of string

type agg = Count | Sum of string | Mean of string

let field_value fields name = Json.number (List.assoc_opt name fields)

let field_label fields name =
  match List.assoc_opt name fields with
  | Some (Json.Int n) -> Some (string_of_int n)
  | Some (Json.Float f) -> Some (string_of_float f)
  | Some (Json.String s) -> Some s
  | Some (Json.Null | Json.Bool _ | Json.List _ | Json.Obj _) | None -> None

let group t ~key ~agg =
  let label_of e =
    match key with
    | By_kind -> Some (Event.kind_name e.ev.Event.kind)
    | By_run -> Some (string_of_int e.run)
    | By_field f -> field_label (Event.fields_of_kind e.ev.Event.kind) f
  in
  let table : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
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
           incr n))
    t;
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (* lint: allow L3 — the bindings are sorted by the enclosing List.sort *)
    (Hashtbl.fold
       (fun label (sum, n) acc ->
         match agg with
         | Count | Sum _ -> (label, !sum) :: acc
         | Mean _ ->
           if !n = 0 then acc else (label, !sum /. float_of_int !n) :: acc)
       table [])

let top n rows =
  let sorted =
    List.sort
      (fun (la, va) (lb, vb) ->
        match compare vb va with 0 -> compare la lb | c -> c)
      rows
  in
  List.filteri (fun i _ -> i < n) sorted

(* --- pairing --- *)

type pair_row = {
  p_run : int;
  req : int;
  io : string;
  start_us : int;
  finish_us : int;
  latency_us : int;
}

type pairing = {
  rows : pair_row list;
  unmatched_starts : int;
  unmatched_dones : int;
}

let req_of (ev : Event.t) = Json.int (List.assoc_opt "req" (Event.fields_of_kind ev.kind))

let io_of (ev : Event.t) =
  Option.value (Json.string (List.assoc_opt "io" (Event.fields_of_kind ev.kind))) ~default:""

let pair t ~start_kind ~done_kind =
  if not (List.mem start_kind Event.all_kind_names) then
    Error (Printf.sprintf "unknown event kind %S" start_kind)
  else if not (List.mem done_kind Event.all_kind_names) then
    Error (Printf.sprintf "unknown event kind %S" done_kind)
  else begin
    let opens : (int, entry) Hashtbl.t = Hashtbl.create 64 in
    let rows = ref [] in
    let unmatched_starts = ref 0 in
    let unmatched_dones = ref 0 in
    let missing_req = ref None in
    let flush_opens () =
      unmatched_starts := !unmatched_starts + Hashtbl.length opens;
      Hashtbl.reset opens
    in
    List.iter
      (fun e ->
        let name = Event.kind_name e.ev.Event.kind in
        if name = "run_start" then flush_opens ()
        else if name = start_kind || name = done_kind then begin
          match req_of e.ev with
          | None -> if !missing_req = None then missing_req := Some name
          | Some req ->
            (* An event kind may be both start and done only if distinct;
               match start first so self-pairing is impossible. *)
            if name = start_kind then begin
              (match Hashtbl.find_opt opens req with
               | Some _ -> incr unmatched_starts  (* duplicate start *)
               | None -> ());
              Hashtbl.replace opens req e
            end
            else begin
              match Hashtbl.find_opt opens req with
              | None -> incr unmatched_dones
              | Some s ->
                Hashtbl.remove opens req;
                rows :=
                  {
                    p_run = s.run;
                    req;
                    io = io_of s.ev;
                    start_us = s.ev.Event.t_us;
                    finish_us = e.ev.Event.t_us;
                    latency_us = e.ev.Event.t_us - s.ev.Event.t_us;
                  }
                  :: !rows
            end
        end)
      t;
    flush_opens ();
    match !missing_req with
    | Some name ->
      Error (Printf.sprintf "event kind %S carries no \"req\" field" name)
    | None ->
      Ok
        {
          rows = List.rev !rows;
          unmatched_starts = !unmatched_starts;
          unmatched_dones = !unmatched_dones;
        }
  end

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

(* A percentile is the ceil(p*n)-th smallest sample itself: the rank
   rule of [Metrics.Histogram.percentile] without its power-of-two
   bucket rounding, which can understate the tail by up to 2x. *)
let latency_of p =
  match p.rows with
  | [] -> None
  | rows ->
    let hist = Metrics.Histogram.log2 ~max_exponent:30 in
    let stats = Metrics.Stats.create () in
    List.iter
      (fun r ->
        Metrics.Histogram.add hist (max 0 r.latency_us);
        Metrics.Stats.add stats (float_of_int r.latency_us))
      rows;
    let sorted = Array.of_list (List.map (fun r -> max 0 r.latency_us) rows) in
    Array.sort compare sorted;
    let n = Array.length sorted in
    let percentile q =
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      sorted.(min rank n - 1)
    in
    Some
      {
        samples = n;
        min_us = int_of_float (Metrics.Stats.min stats);
        max_us = int_of_float (Metrics.Stats.max stats);
        mean_us = Metrics.Stats.mean stats;
        p50_us = percentile 0.50;
        p90_us = percentile 0.90;
        p99_us = percentile 0.99;
        hist;
      }

(* --- summary --- *)

type summary = {
  events : int;
  t_first_us : int;
  t_last_us : int;
  kinds : (string * int) list;
}

let kind_count s name = match List.assoc_opt name s.kinds with Some n -> n | None -> 0

let to_summary t =
  let table = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let name = Event.kind_name e.ev.Event.kind in
      match Hashtbl.find_opt table name with
      | Some r -> incr r
      | None -> Hashtbl.replace table name (ref 1))
    t;
  {
    events = List.length t;
    t_first_us = (match t with [] -> 0 | e :: _ -> e.ev.Event.t_us);
    t_last_us = List.fold_left (fun _ e -> e.ev.Event.t_us) 0 t;
    kinds =
      (* lint: allow L3 — the bindings are sorted by the enclosing List.sort *)
      List.sort compare (Hashtbl.fold (fun k r l -> (k, !r) :: l) table []);
  }

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

let report_groups t ~key ~agg ~limit ~json =
  match (Option.fold ~none:(Ok By_kind) ~some:group_key_of_string key, agg_of_string agg) with
  | Error msg, _ | _, Error msg -> Error msg
  | Ok key, Ok agg ->
    let rows = group t ~key ~agg in
    let rows = match limit with None -> rows | Some n -> top n rows in
    if json then
      print_endline
        (Json.to_string (Json.Obj (List.map (fun (label, v) -> (label, Json.Float v)) rows)))
    else begin
      Printf.printf "%d event(s) after filters\n" (length t);
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
          ("pairs", Json.Int (List.length p.rows));
          ("unmatched_starts", Json.Int p.unmatched_starts);
          ("unmatched_dones", Json.Int p.unmatched_dones);
        ]
       @ latency))

let print_pairing p l ~start_kind ~done_kind ~percentiles =
  Printf.printf "paired %d %s->%s (%d unmatched start(s), %d unmatched done(s))\n"
    (List.length p.rows) start_kind done_kind p.unmatched_starts p.unmatched_dones;
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

let report_pairs t ~spec ~percentiles ~json =
  match String.split_on_char ',' spec with
  | [ start_kind; done_kind ] ->
    Result.map
      (fun p ->
        let l = latency_of p in
        if json then print_endline (latency_to_json p l)
        else print_pairing p l ~start_kind ~done_kind ~percentiles)
      (pair t ~start_kind ~done_kind)
  | _ -> Error (Printf.sprintf "bad --pair %S: want START,DONE" spec)
