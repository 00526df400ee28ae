type direction = In | Out

type io = Demand | Prefetch | Writeback

let io_name = function
  | Demand -> "demand"
  | Prefetch -> "prefetch"
  | Writeback -> "writeback"

let io_of_name = function
  | "demand" -> Some Demand
  | "prefetch" -> Some Prefetch
  | "writeback" -> Some Writeback
  | _ -> None

type kind =
  | Run_start of { run : int; seed : int option; config : string option }
  | Fault of { page : int }
  | Cold_fault of { page : int }
  | Eviction of { page : int }
  | Writeback of { page : int }
  | Tlb_hit of { key : int }
  | Tlb_miss of { key : int }
  | Alloc of { addr : int; size : int }
  | Free of { addr : int; size : int }
  | Split of { addr : int; size : int; remainder : int }
  | Coalesce of { addr : int; size : int }
  | Compaction_move of { src : int; dst : int; len : int }
  | Segment_swap of { segment : int; words : int; direction : direction }
  | Job_start of { job : int }
  | Job_stop of { job : int }
  | Io_start of { req : int; page : int; io : io }
  | Io_done of { req : int; page : int; io : io }
  | Io_retry of { req : int; attempt : int }
  | Io_error of { req : int; page : int; io : io; attempts : int }
  | Job_abort of { job : int; restarts : int }
  | Load_shed of { job : int }
  | Load_admit of { job : int }
  | Shard_crash of { shard : int; attempt : int }
  | Shard_restart of { shard : int; attempt : int }
  | Shard_checkpoint of { shard : int; progress : int; events : int }
  | Watchdog_fire of { rule : string; snapshots : int }
  | Watchdog_clear of { rule : string; snapshots : int }

type t = { t_us : int; kind : kind }

let make ~t_us kind = { t_us; kind }

let kind_name = function
  | Run_start _ -> "run_start"
  | Fault _ -> "fault"
  | Cold_fault _ -> "cold_fault"
  | Eviction _ -> "eviction"
  | Writeback _ -> "writeback"
  | Tlb_hit _ -> "tlb_hit"
  | Tlb_miss _ -> "tlb_miss"
  | Alloc _ -> "alloc"
  | Free _ -> "free"
  | Split _ -> "split"
  | Coalesce _ -> "coalesce"
  | Compaction_move _ -> "compaction_move"
  | Segment_swap _ -> "segment_swap"
  | Job_start _ -> "job_start"
  | Job_stop _ -> "job_stop"
  | Io_start _ -> "io_start"
  | Io_done _ -> "io_done"
  | Io_retry _ -> "io_retry"
  | Io_error _ -> "io_error"
  | Job_abort _ -> "job_abort"
  | Load_shed _ -> "load_shed"
  | Load_admit _ -> "load_admit"
  | Shard_crash _ -> "shard_crash"
  | Shard_restart _ -> "shard_restart"
  | Shard_checkpoint _ -> "shard_checkpoint"
  | Watchdog_fire _ -> "watchdog_fire"
  | Watchdog_clear _ -> "watchdog_clear"

let all_kind_names =
  [ "run_start"; "fault"; "cold_fault"; "eviction"; "writeback"; "tlb_hit"; "tlb_miss";
    "alloc"; "free"; "split"; "coalesce"; "compaction_move"; "segment_swap"; "job_start";
    "job_stop"; "io_start"; "io_done"; "io_retry"; "io_error"; "job_abort"; "load_shed";
    "load_admit"; "shard_crash"; "shard_restart"; "shard_checkpoint"; "watchdog_fire";
    "watchdog_clear" ]

let trace_schema = "dsas-trace/1"

let fields_of_kind = function
  | Run_start { run; seed; config } ->
    ("run", Json.Int run)
    :: ("schema", Json.String trace_schema)
    :: ((match seed with Some s -> [ ("seed", Json.Int s) ] | None -> [])
        @ (match config with Some c -> [ ("config", Json.String c) ] | None -> []))
  | Fault { page } | Cold_fault { page } | Eviction { page } | Writeback { page } ->
    [ ("page", Json.Int page) ]
  | Tlb_hit { key } | Tlb_miss { key } -> [ ("key", Json.Int key) ]
  | Alloc { addr; size } | Free { addr; size } | Coalesce { addr; size } ->
    [ ("addr", Json.Int addr); ("size", Json.Int size) ]
  | Split { addr; size; remainder } ->
    [ ("addr", Json.Int addr); ("size", Json.Int size); ("remainder", Json.Int remainder) ]
  | Compaction_move { src; dst; len } ->
    [ ("src", Json.Int src); ("dst", Json.Int dst); ("len", Json.Int len) ]
  | Segment_swap { segment; words; direction } ->
    [ ("segment", Json.Int segment); ("words", Json.Int words);
      ("dir", Json.String (match direction with In -> "in" | Out -> "out")) ]
  | Job_start { job } | Job_stop { job } -> [ ("job", Json.Int job) ]
  | Io_start { req; page; io } | Io_done { req; page; io } ->
    [ ("req", Json.Int req); ("page", Json.Int page); ("io", Json.String (io_name io)) ]
  | Io_retry { req; attempt } -> [ ("req", Json.Int req); ("attempt", Json.Int attempt) ]
  | Io_error { req; page; io; attempts } ->
    [ ("req", Json.Int req); ("page", Json.Int page); ("io", Json.String (io_name io));
      ("attempts", Json.Int attempts) ]
  | Job_abort { job; restarts } -> [ ("job", Json.Int job); ("restarts", Json.Int restarts) ]
  | Load_shed { job } | Load_admit { job } -> [ ("job", Json.Int job) ]
  | Shard_crash { shard; attempt } | Shard_restart { shard; attempt } ->
    [ ("shard", Json.Int shard); ("attempt", Json.Int attempt) ]
  | Shard_checkpoint { shard; progress; events } ->
    [ ("shard", Json.Int shard); ("progress", Json.Int progress);
      ("events", Json.Int events) ]
  | Watchdog_fire { rule; snapshots } | Watchdog_clear { rule; snapshots } ->
    [ ("rule", Json.String rule); ("snapshots", Json.Int snapshots) ]

let to_json t =
  Json.to_string
    (Json.Obj
       (("t_us", Json.Int t.t_us)
        :: ("ev", Json.String (kind_name t.kind))
        :: fields_of_kind t.kind))

let of_json line =
  match Json.flat line with
  | None -> None
  | Some fields ->
    let int k = Json.int (List.assoc_opt k fields) in
    let str k = Json.string (List.assoc_opt k fields) in
    let io () = Option.bind (str "io") io_of_name in
    let kind =
      match str "ev" with
      | Some "run_start" ->
        Option.map (fun run -> Run_start { run; seed = int "seed"; config = str "config" })
          (int "run")
      | Some "fault" -> Option.map (fun page -> Fault { page }) (int "page")
      | Some "cold_fault" -> Option.map (fun page -> Cold_fault { page }) (int "page")
      | Some "eviction" -> Option.map (fun page -> Eviction { page }) (int "page")
      | Some "writeback" -> Option.map (fun page -> Writeback { page }) (int "page")
      | Some "tlb_hit" -> Option.map (fun key -> Tlb_hit { key }) (int "key")
      | Some "tlb_miss" -> Option.map (fun key -> Tlb_miss { key }) (int "key")
      | Some "alloc" ->
        (match (int "addr", int "size") with
         | Some addr, Some size -> Some (Alloc { addr; size })
         | _ -> None)
      | Some "free" ->
        (match (int "addr", int "size") with
         | Some addr, Some size -> Some (Free { addr; size })
         | _ -> None)
      | Some "split" ->
        (match (int "addr", int "size", int "remainder") with
         | Some addr, Some size, Some remainder -> Some (Split { addr; size; remainder })
         | _ -> None)
      | Some "coalesce" ->
        (match (int "addr", int "size") with
         | Some addr, Some size -> Some (Coalesce { addr; size })
         | _ -> None)
      | Some "compaction_move" ->
        (match (int "src", int "dst", int "len") with
         | Some src, Some dst, Some len -> Some (Compaction_move { src; dst; len })
         | _ -> None)
      | Some "segment_swap" ->
        (match (int "segment", int "words", str "dir") with
         | Some segment, Some words, Some "in" ->
           Some (Segment_swap { segment; words; direction = In })
         | Some segment, Some words, Some "out" ->
           Some (Segment_swap { segment; words; direction = Out })
         | _ -> None)
      | Some "job_start" -> Option.map (fun job -> Job_start { job }) (int "job")
      | Some "job_stop" -> Option.map (fun job -> Job_stop { job }) (int "job")
      | Some (("io_start" | "io_done") as which) ->
        (match (int "req", int "page", io ()) with
         | Some req, Some page, Some io ->
           if which = "io_start" then Some (Io_start { req; page; io })
           else Some (Io_done { req; page; io })
         | _ -> None)
      | Some "io_retry" ->
        (match (int "req", int "attempt") with
         | Some req, Some attempt -> Some (Io_retry { req; attempt })
         | _ -> None)
      | Some "io_error" ->
        (match (int "req", int "page", io (), int "attempts") with
         | Some req, Some page, Some io, Some attempts ->
           Some (Io_error { req; page; io; attempts })
         | _ -> None)
      | Some "job_abort" ->
        (match (int "job", int "restarts") with
         | Some job, Some restarts -> Some (Job_abort { job; restarts })
         | _ -> None)
      | Some "load_shed" -> Option.map (fun job -> Load_shed { job }) (int "job")
      | Some "load_admit" -> Option.map (fun job -> Load_admit { job }) (int "job")
      | Some (("shard_crash" | "shard_restart") as which) ->
        (match (int "shard", int "attempt") with
         | Some shard, Some attempt ->
           if which = "shard_crash" then Some (Shard_crash { shard; attempt })
           else Some (Shard_restart { shard; attempt })
         | _ -> None)
      | Some "shard_checkpoint" ->
        (match (int "shard", int "progress", int "events") with
         | Some shard, Some progress, Some events ->
           Some (Shard_checkpoint { shard; progress; events })
         | _ -> None)
      | Some (("watchdog_fire" | "watchdog_clear") as which) ->
        (match (str "rule", int "snapshots") with
         | Some rule, Some snapshots ->
           if which = "watchdog_fire" then Some (Watchdog_fire { rule; snapshots })
           else Some (Watchdog_clear { rule; snapshots })
         | _ -> None)
      | Some _ | None -> None
    in
    (match (kind, int "t_us") with
     | Some kind, Some t_us when t_us >= 0 -> Some { t_us; kind }
     | _ -> None)
