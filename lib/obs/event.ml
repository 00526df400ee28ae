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

let trace_schema = "dsas-trace/1"

(* --- the wire format: one description of every kind ---

   [map_fields c s kind] hands each field of [kind] to the codec [c], in
   wire order, as its key, type and value, and rebuilds the kind from
   what [c] hands back: the encoder writes the value and hands it back,
   the decoder hands back what it read (or raises [Malformed]).  An int
   field also declares its range.  Keys are plain identifiers, written
   without escaping. *)

type range = Any | Nat | Pos  (* any int, at least 0, at least 1 *)

type _ ty = Int : range -> int ty | Str : string ty

let any = Int Any and nat = Int Nat and pos = Int Pos

type 's codec = { field : 'a. 's -> string -> 'a ty -> 'a -> 'a }

exception Malformed

let wire of_name name = match of_name name with Some v -> v | None -> raise Malformed

(* A field present only when [Some]: written then, and read as [None]
   when absent or mistyped.  Its template value must be [Some _]. *)
let opt c s key ty = function
  | Some v -> (try Some (c.field s key ty v) with Malformed -> None)
  | None -> None

let map_fields c s = function
  | Run_start { run; seed; config } ->
    let run = c.field s "run" nat run in
    (* the schema stamp: always written, not required on reading *)
    let (_ : string option) = opt c s "schema" Str (Some trace_schema) in
    let seed = opt c s "seed" any seed in
    Run_start { run; seed; config = opt c s "config" Str config }
  | Fault { page } -> Fault { page = c.field s "page" nat page }
  | Cold_fault { page } -> Cold_fault { page = c.field s "page" nat page }
  | Eviction { page } -> Eviction { page = c.field s "page" nat page }
  | Writeback { page } -> Writeback { page = c.field s "page" nat page }
  | Tlb_hit { key } -> Tlb_hit { key = c.field s "key" nat key }
  | Tlb_miss { key } -> Tlb_miss { key = c.field s "key" nat key }
  | Alloc { addr; size } ->
    let addr = c.field s "addr" nat addr in
    Alloc { addr; size = c.field s "size" pos size }
  | Free { addr; size } ->
    let addr = c.field s "addr" nat addr in
    Free { addr; size = c.field s "size" pos size }
  | Split { addr; size; remainder } ->
    let addr = c.field s "addr" nat addr in
    let size = c.field s "size" pos size in
    Split { addr; size; remainder = c.field s "remainder" nat remainder }
  | Coalesce { addr; size } ->
    let addr = c.field s "addr" nat addr in
    Coalesce { addr; size = c.field s "size" pos size }
  | Compaction_move { src; dst; len } ->
    let src = c.field s "src" nat src in
    let dst = c.field s "dst" nat dst in
    Compaction_move { src; dst; len = c.field s "len" pos len }
  | Segment_swap { segment; words; direction } ->
    let segment = c.field s "segment" nat segment in
    let words = c.field s "words" pos words in
    let direction =
      match c.field s "dir" Str (match direction with In -> "in" | Out -> "out") with
      | "in" -> In
      | "out" -> Out
      | _ -> raise Malformed
    in
    Segment_swap { segment; words; direction }
  | Job_start { job } -> Job_start { job = c.field s "job" nat job }
  | Job_stop { job } -> Job_stop { job = c.field s "job" nat job }
  | Io_start { req; page; io } ->
    let req = c.field s "req" nat req in
    let page = c.field s "page" nat page in
    Io_start { req; page; io = wire io_of_name (c.field s "io" Str (io_name io)) }
  | Io_done { req; page; io } ->
    let req = c.field s "req" nat req in
    let page = c.field s "page" nat page in
    Io_done { req; page; io = wire io_of_name (c.field s "io" Str (io_name io)) }
  | Io_retry { req; attempt } ->
    let req = c.field s "req" nat req in
    Io_retry { req; attempt = c.field s "attempt" pos attempt }
  | Io_error { req; page; io; attempts } ->
    let req = c.field s "req" nat req in
    let page = c.field s "page" nat page in
    let io = wire io_of_name (c.field s "io" Str (io_name io)) in
    Io_error { req; page; io; attempts = c.field s "attempts" pos attempts }
  | Job_abort { job; restarts } ->
    let job = c.field s "job" nat job in
    Job_abort { job; restarts = c.field s "restarts" pos restarts }
  | Load_shed { job } -> Load_shed { job = c.field s "job" nat job }
  | Load_admit { job } -> Load_admit { job = c.field s "job" nat job }
  | Shard_crash { shard; attempt } ->
    let shard = c.field s "shard" nat shard in
    Shard_crash { shard; attempt = c.field s "attempt" pos attempt }
  | Shard_restart { shard; attempt } ->
    let shard = c.field s "shard" nat shard in
    Shard_restart { shard; attempt = c.field s "attempt" pos attempt }
  | Shard_checkpoint { shard; progress; events } ->
    let shard = c.field s "shard" nat shard in
    let progress = c.field s "progress" nat progress in
    Shard_checkpoint { shard; progress; events = c.field s "events" nat events }
  | Watchdog_fire { rule; snapshots } ->
    let rule = c.field s "rule" Str rule in
    Watchdog_fire { rule; snapshots = c.field s "snapshots" pos snapshots }
  | Watchdog_clear { rule; snapshots } ->
    let rule = c.field s "rule" Str rule in
    Watchdog_clear { rule; snapshots = c.field s "snapshots" pos snapshots }

(* One template of every kind, in declaration order: decoding rebuilds one. *)
let templates =
  [ Run_start { run = 0; seed = Some 0; config = Some "" }; Fault { page = 0 };
    Cold_fault { page = 0 }; Eviction { page = 0 }; Writeback { page = 0 };
    Tlb_hit { key = 0 }; Tlb_miss { key = 0 }; Alloc { addr = 0; size = 0 };
    Free { addr = 0; size = 0 }; Split { addr = 0; size = 0; remainder = 0 };
    Coalesce { addr = 0; size = 0 }; Compaction_move { src = 0; dst = 0; len = 0 };
    Segment_swap { segment = 0; words = 0; direction = In }; Job_start { job = 0 };
    Job_stop { job = 0 }; Io_start { req = 0; page = 0; io = Demand };
    Io_done { req = 0; page = 0; io = Demand }; Io_retry { req = 0; attempt = 0 };
    Io_error { req = 0; page = 0; io = Demand; attempts = 0 };
    Job_abort { job = 0; restarts = 0 }; Load_shed { job = 0 }; Load_admit { job = 0 };
    Shard_crash { shard = 0; attempt = 0 }; Shard_restart { shard = 0; attempt = 0 };
    Shard_checkpoint { shard = 0; progress = 0; events = 0 };
    Watchdog_fire { rule = ""; snapshots = 0 }; Watchdog_clear { rule = ""; snapshots = 0 } ]

let all_kind_names = List.map kind_name templates

(* --- encoding --- *)

let encoder =
  let write : type a. Buffer.t -> string -> a ty -> a -> a =
   fun buf key ty v ->
    (* a field opens with a comma unless it is the first of its object *)
    if Buffer.nth buf (Buffer.length buf - 1) <> '{' then Buffer.add_char buf ',';
    Buffer.add_char buf '"';
    Buffer.add_string buf key;
    Buffer.add_char buf '"';
    Buffer.add_char buf ':';
    (match ty with Int _ -> Json.add_int buf v | Str -> Json.add_quoted buf v);
    v
  in
  { field = write }

let fields_to_buffer buf kind =
  Buffer.add_char buf '{';
  let (_ : kind) = map_fields encoder buf kind in
  Buffer.add_char buf '}'

let to_buffer buf t =
  Buffer.add_string buf {|{"t_us":|};
  Json.add_int buf t.t_us;
  Buffer.add_string buf {|,"ev":"|};
  Buffer.add_string buf (kind_name t.kind);
  Buffer.add_char buf '"';
  let (_ : kind) = map_fields encoder buf t.kind in
  Buffer.add_char buf '}'

(* Each domain encodes [to_json]'s events in its own buffer. *)
let buffers = Domain.DLS.new_key (fun () -> Buffer.create 256)

let to_json t =
  let buf = Domain.DLS.get buffers in
  Buffer.clear buf;
  to_buffer buf t;
  Buffer.contents buf

(* --- the table read back --- *)

(* What the codec [c] gathers over [kind]'s fields, in wire order. *)
let gather c kind =
  let acc = ref [] in
  let (_ : kind) = map_fields c acc kind in
  List.rev !acc

let fields_of_kind =
  gather
    { field = (fun (type a) acc key (ty : a ty) (v : a) : a ->
          acc := (key, match ty with Int _ -> Json.Int v | Str -> Json.String v) :: !acc;
          v) }

let out_of_range =
  gather
    { field = (fun (type a) acc key (ty : a ty) (v : a) : a ->
          (match ty with
           | Int Nat when v < 0 -> acc := (key, (v : int), 0) :: !acc
           | Int Pos when v < 1 -> acc := (key, v, 1) :: !acc
           | Int _ | Str -> ());
          v) }

let of_json line =
  let read : type a. (string * Json.t) list -> string -> a ty -> a =
   fun fields key ty ->
    match (ty, List.assoc_opt key fields) with
    | Int _, Some (Json.Int n) -> n
    | Str, Some (Json.String s) -> s
    | _ -> raise Malformed
  in
  let decoder = { field = (fun fields key ty _ -> read fields key ty) } in
  let template name = List.find_opt (fun k -> kind_name k = name) templates in
  match Json.flat line with
  | None -> None
  | Some fields ->
    (match (Option.bind (Json.string (List.assoc_opt "ev" fields)) template,
            Json.int (List.assoc_opt "t_us" fields)) with
     | Some template, Some t_us when t_us >= 0 ->
       (try Some { t_us; kind = map_fields decoder fields template } with Malformed -> None)
     | _ -> None)
