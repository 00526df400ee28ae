(* The Chrome exporter as it was when every record was a Json.t: the
   byte-for-byte reference the direct writer is held to, in test_obs and
   test_telemetry. *)

let of_events (events : Obs.Event.t list) =
  let open Obs in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit fields =
    if !first then first := false else Buffer.add_char buf ',';
    Json.to_buffer buf (Json.Obj fields)
  in
  (* (pid, tid) pairs already announced with metadata events *)
  let named : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let announce ~pid ~tid =
    if not (Hashtbl.mem named (pid, -1)) then begin
      Hashtbl.replace named (pid, -1) ();
      emit
        [ ("name", Json.String "process_name"); ("ph", Json.String "M");
          ("pid", Json.Int pid); ("tid", Json.Int 0);
          ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "run %d" pid)) ]) ]
    end;
    if not (Hashtbl.mem named (pid, tid)) then begin
      Hashtbl.replace named (pid, tid) ();
      emit
        [ ("name", Json.String "thread_name"); ("ph", Json.String "M");
          ("pid", Json.Int pid); ("tid", Json.Int tid);
          ("args",
           Json.Obj
             [ ("name",
                Json.String
                  (if tid = 0 then "engine" else Printf.sprintf "shard %d" (tid - 1))) ]) ]
    end
  in
  let run = ref 0 in
  List.iter
    (fun (ev : Event.t) ->
      (match ev.kind with Event.Run_start { run = r; _ } -> run := r | _ -> ());
      let pid = !run in
      let fields = Event.fields_of_kind ev.kind in
      let tid =
        match List.assoc_opt "shard" fields with Some (Json.Int s) -> s + 1 | _ -> 0
      in
      announce ~pid ~tid;
      let common =
        [ ("pid", Json.Int pid); ("tid", Json.Int tid); ("ts", Json.Int ev.t_us) ]
      in
      let name = Event.kind_name ev.kind in
      match ev.kind with
      | Event.Io_start { req; page; io } ->
        emit
          (("name", Json.String (Event.io_name io))
           :: ("cat", Json.String "io")
           :: ("ph", Json.String "b")
           :: ("id", Json.Int req)
           :: common
           @ [ ("args", Json.Obj [ ("req", Json.Int req); ("page", Json.Int page) ]) ])
      | Event.Io_done { req; page; io } ->
        emit
          (("name", Json.String (Event.io_name io))
           :: ("cat", Json.String "io")
           :: ("ph", Json.String "e")
           :: ("id", Json.Int req)
           :: common
           @ [ ("args", Json.Obj [ ("req", Json.Int req); ("page", Json.Int page) ]) ])
      | Event.Io_error { req; page; io; attempts } ->
        emit
          (("name", Json.String (Event.io_name io))
           :: ("cat", Json.String "io")
           :: ("ph", Json.String "e")
           :: ("id", Json.Int req)
           :: common
           @ [ ("args",
                Json.Obj
                  [ ("req", Json.Int req); ("page", Json.Int page);
                    ("error", Json.String "terminal"); ("attempts", Json.Int attempts) ]) ])
      | Event.Watchdog_fire { rule; snapshots } ->
        emit
          (("name", Json.String rule)
           :: ("cat", Json.String "watchdog")
           :: ("ph", Json.String "b")
           :: ("id", Json.String rule)
           :: common
           @ [ ("args", Json.Obj [ ("snapshots", Json.Int snapshots) ]) ])
      | Event.Watchdog_clear { rule; snapshots } ->
        emit
          (("name", Json.String rule)
           :: ("cat", Json.String "watchdog")
           :: ("ph", Json.String "e")
           :: ("id", Json.String rule)
           :: common
           @ [ ("args", Json.Obj [ ("snapshots", Json.Int snapshots) ]) ])
      | _ ->
        emit
          (("name", Json.String name)
           :: ("cat", Json.String "engine")
           :: ("ph", Json.String "i")
           :: ("s", Json.String "t")
           :: common
           @ (match fields with [] -> [] | _ -> [ ("args", Json.Obj fields) ])))
    events;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf
