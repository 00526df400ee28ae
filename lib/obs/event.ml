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

(* --- the writer ---

   Every event byte is written by one writer: a [Bytes.t] and a
   position.  Each piece (a field, an int, a text) checks the capacity
   once and then writes its bytes in place, with no call per byte: a
   field's [,"key":], the kind name and every fixed text are copied in
   4- and 8-byte words, and ints take their digits two at a time from
   [Json.quads].  The writer is reused, so it allocates only when it
   grows.  The loops stay in this module: with [-opaque] no call into
   another one is inlined. *)

type writer = { mutable bytes : Bytes.t; mutable pos : int }

let writer capacity = { bytes = Bytes.create (max 16 capacity); pos = 0 }

let written w = w.pos

let take w =
  let s = Bytes.sub_string w.bytes 0 w.pos in
  w.pos <- 0;
  s

(* Make room for [n] more bytes; callers check first. *)
let grow w n =
  let bytes = Bytes.create (max (w.pos + n) (2 * Bytes.length w.bytes)) in
  Bytes.blit w.bytes 0 bytes 0 w.pos;
  w.bytes <- bytes

(* Each [put] writes at [p], in room already made, and returns the
   next free position.  A text of 4 bytes or more is copied as words,
   the last one overlapping the one before when the length is not a
   multiple of the word. *)
let put b p s =
  let n = String.length s in
  if n < 4 then
    for i = 0 to n - 1 do
      Bytes.unsafe_set b (p + i) (String.unsafe_get s i)
    done
  else if n < 8 then begin
    Bytes.set_int32_ne b p (String.get_int32_ne s 0);
    Bytes.set_int32_ne b (p + n - 4) (String.get_int32_ne s (n - 4))
  end
  else begin
    let i = ref 0 in
    while !i < n - 8 do
      Bytes.set_int64_ne b (p + !i) (String.get_int64_ne s !i);
      i := !i + 8
    done;
    Bytes.set_int64_ne b (p + n - 8) (String.get_int64_ne s (n - 8))
  end;
  p + n

(* The number of digits of [-n], for [n <= 0]. *)
let rec digits n =
  if n > -10 then 1
  else if n > -100 then 2
  else if n > -1000 then 3
  else if n > -10_000 then 4
  else 4 + digits (n / 10_000)

(* At most 20 bytes.  The digits are those of [-n] for [n <= 0], so
   [min_int] needs no special case; they are written from the last one
   back, two at a time: "00" to "99" end the first hundred quads. *)
let put_int b p n =
  let p = if n < 0 then (Bytes.unsafe_set b p '-'; p + 1) else p in
  let n = ref (if n < 0 then n else -n) in
  let quads = Json.quads and stop = p + digits !n in
  let i = ref stop in
  while !n <= -10 do
    let q = -4 * (!n mod 100) in
    Bytes.unsafe_set b (!i - 1) (String.unsafe_get quads (q + 3));
    Bytes.unsafe_set b (!i - 2) (String.unsafe_get quads (q + 2));
    n := !n / 100;
    i := !i - 2
  done;
  if !i > p then Bytes.unsafe_set b (!i - 1) (Char.unsafe_chr (48 - !n));
  stop

(* The bytes [put_quoted] writes for [s]: the escapes of [Json.t]'s
   printer, quotes included. *)
let quoted_length s =
  let n = ref (String.length s + 2) in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' | '\\' | '\n' | '\r' | '\t' -> incr n
    | '\000' .. '\031' -> n := !n + 5
    | _ -> ()
  done;
  !n

let put_quoted b p s =
  Bytes.unsafe_set b p '"';
  let p = ref (p + 1) in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | ('"' | '\\' | '\n' | '\r' | '\t') as c ->
      Bytes.unsafe_set b !p '\\';
      Bytes.unsafe_set b (!p + 1)
        (match c with '\n' -> 'n' | '\r' -> 'r' | '\t' -> 't' | c -> c);
      p := !p + 2
    | '\000' .. '\031' as c ->
      let p' = put b !p "\\u00" in
      Bytes.unsafe_set b p' (Char.unsafe_chr (48 + (Char.code c lsr 4)));
      Bytes.unsafe_set b (p' + 1) (String.unsafe_get "0123456789abcdef" (Char.code c land 15));
      p := p' + 2
    | c ->
      Bytes.unsafe_set b !p c;
      incr p
  done;
  Bytes.unsafe_set b !p '"';
  !p + 1

let add_text w s =
  if w.pos + String.length s > Bytes.length w.bytes then grow w (String.length s);
  w.pos <- put w.bytes w.pos s

let add_int w n =
  if w.pos + 20 > Bytes.length w.bytes then grow w 20;
  w.pos <- put_int w.bytes w.pos n

let add_quoted w s =
  let n = quoted_length s in
  if w.pos + n > Bytes.length w.bytes then grow w n;
  w.pos <- put_quoted w.bytes w.pos s

(* Every field opens with [,"key":], and an object's opening brace
   takes the place of its first field's comma (every kind has one). *)
let encoder =
  { field =
      (fun (type a) w key (ty : a ty) (v : a) : a ->
        let room = 4 + String.length key + (match ty with Int _ -> 20 | Str -> quoted_length v) in
        if w.pos + room > Bytes.length w.bytes then grow w room;
        let b = w.bytes in
        Bytes.unsafe_set b w.pos ',';
        Bytes.unsafe_set b (w.pos + 1) '"';
        let p = put b (w.pos + 2) key in
        Bytes.unsafe_set b p '"';
        Bytes.unsafe_set b (p + 1) ':';
        w.pos <- (match ty with Int _ -> put_int b (p + 2) v | Str -> put_quoted b (p + 2) v);
        v) }

let add_fields w kind =
  let start = w.pos in
  let (_ : kind) = map_fields encoder w kind in
  Bytes.set w.bytes start '{';
  add_text w "}"

let add_event w t =
  let name = kind_name t.kind in
  (* the two fixed texts hold 15 bytes, the int at most 20 *)
  let room = 36 + String.length name in
  if w.pos + room > Bytes.length w.bytes then grow w room;
  let b = w.bytes in
  let p = put_int b (put b w.pos {|{"t_us":|}) t.t_us in
  let p = put b (put b p {|,"ev":"|}) name in
  Bytes.unsafe_set b p '"';
  w.pos <- p + 1;
  let (_ : kind) = map_fields encoder w t.kind in
  add_text w "}"

(* Each domain encodes [to_json]'s events in its own writer. *)
let writers = Domain.DLS.new_key (fun () -> writer 256)

let encode t =
  let w = Domain.DLS.get writers in
  w.pos <- 0;
  add_event w t;
  w

let to_json t = take (encode t)

let to_buffer buf t =
  let w = encode t in
  Buffer.add_subbytes buf w.bytes 0 w.pos

let to_channel oc t =
  let w = encode t in
  add_text w "\n";
  output oc w.bytes 0 w.pos

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
