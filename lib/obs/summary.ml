type replay = {
  policy : string;
  frames : int;
  refs : int;
  faults : int;
  cold : int;
  evictions : int;
}

let replay_fault_rate r =
  if r.refs = 0 then 0. else float_of_int r.faults /. float_of_int r.refs

let replay_to_json r =
  Json.obj
    [
      ("policy", Json.String r.policy);
      ("frames", Json.Int r.frames);
      ("refs", Json.Int r.refs);
      ("faults", Json.Int r.faults);
      ("fault_rate", Json.Float (replay_fault_rate r));
      ("cold", Json.Int r.cold);
      ("evictions", Json.Int r.evictions);
    ]

type trace_stats = {
  events : int;
  t_first_us : int;
  t_last_us : int;
  kinds : (string * int) list;
}

let count t name = match List.assoc_opt name t.kinds with Some n -> n | None -> 0

let of_events events =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (ev : Event.t) ->
      let name = Event.kind_name ev.kind in
      match Hashtbl.find_opt table name with
      | Some r -> incr r
      | None -> Hashtbl.replace table name (ref 1))
    events;
  {
    events = List.length events;
    t_first_us = (match events with [] -> 0 | ev :: _ -> ev.Event.t_us);
    t_last_us = List.fold_left (fun _ (ev : Event.t) -> ev.t_us) 0 events;
    kinds =
      (* lint: allow L3 — the bindings are sorted by the enclosing List.sort *)
      List.sort compare (Hashtbl.fold (fun k r l -> (k, !r) :: l) table []);
  }

let trace_stats_to_json t =
  Json.obj
    [
      ("events", Json.Int t.events);
      ("t_first_us", Json.Int t.t_first_us);
      ("t_last_us", Json.Int t.t_last_us);
      ("kinds", Json.Raw (Json.obj (List.map (fun (k, n) -> (k, Json.Int n)) t.kinds)));
    ]

let print_trace_stats t =
  Printf.printf "%d events spanning %d us (t_us %d .. %d)\n" t.events
    (t.t_last_us - t.t_first_us) t.t_first_us t.t_last_us;
  List.iter (fun (k, n) -> Printf.printf "  %-16s %d\n" k n) t.kinds
