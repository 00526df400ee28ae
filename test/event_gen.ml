(* Random events for the property tests of the event writers: every
   kind, payload ints over the whole int range, and strings holding the
   bytes a JSON writer must escape or pass through unchanged. *)

open QCheck.Gen

(* Mostly small, sometimes any int: negatives, max_int and min_int. *)
let payload = frequency [ (3, int_bound 1_000_000); (1, int); (1, oneofl [ 0; -1; max_int; min_int ]) ]

(* Quotes, backslashes, control bytes, DEL and bytes >= 0x80. *)
let text =
  string_size
    ~gen:
      (frequency
         [ (3, printable);
           (1, oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127'; '\128'; '\255' ]) ])
    (int_range 0 12)

let io = oneofl Obs.Event.[ Demand; Prefetch; Writeback ]

(* One generator per kind, in declaration order. *)
let kinds ~shard : Obs.Event.kind t list =
  let p = payload in
  Obs.Event.
    [
      map3 (fun run seed config -> Run_start { run; seed; config }) p (opt p) (opt text);
      map (fun page -> Fault { page }) p;
      map (fun page -> Cold_fault { page }) p;
      map (fun page -> Eviction { page }) p;
      map (fun page -> Writeback { page }) p;
      map (fun key -> Tlb_hit { key }) p;
      map (fun key -> Tlb_miss { key }) p;
      map2 (fun addr size -> Alloc { addr; size }) p p;
      map2 (fun addr size -> Free { addr; size }) p p;
      map3 (fun addr size remainder -> Split { addr; size; remainder }) p p p;
      map2 (fun addr size -> Coalesce { addr; size }) p p;
      map3 (fun src dst len -> Compaction_move { src; dst; len }) p p p;
      map3
        (fun segment words dir ->
          Segment_swap { segment; words; direction = (if dir then In else Out) })
        p p bool;
      map (fun job -> Job_start { job }) p;
      map (fun job -> Job_stop { job }) p;
      map3 (fun req page io -> Io_start { req; page; io }) p p io;
      map3 (fun req page io -> Io_done { req; page; io }) p p io;
      map2 (fun req attempt -> Io_retry { req; attempt }) p p;
      map2 (fun (req, page) (io, attempts) -> Io_error { req; page; io; attempts }) (pair p p) (pair io p);
      map2 (fun job restarts -> Job_abort { job; restarts }) p p;
      map (fun job -> Load_shed { job }) p;
      map (fun job -> Load_admit { job }) p;
      map2 (fun shard attempt -> Shard_crash { shard; attempt }) shard p;
      map2 (fun shard attempt -> Shard_restart { shard; attempt }) shard p;
      map3 (fun shard progress events -> Shard_checkpoint { shard; progress; events }) shard p p;
      map2 (fun rule snapshots -> Watchdog_fire { rule; snapshots }) text p;
      map2 (fun rule snapshots -> Watchdog_clear { rule; snapshots }) text p;
    ]

(* Never negative: a trace line with a negative time is malformed. *)
let t_us = frequency [ (3, int_bound 1_000_000); (1, map (fun n -> n land max_int) int) ]

let event = map2 (fun t_us kind -> Obs.Event.make ~t_us kind) t_us (oneof (kinds ~shard:payload))

(* A stream of several runs whose events fall on a few shard tracks, as
   a merged sharded trace does, with now and then any shard number;
   [length] draws its number of events. *)
let stream_of length =
  let shard = frequency [ (4, int_bound 3); (1, payload) ] in
  let run = map (fun run -> Obs.Event.Run_start { run; seed = None; config = None }) (int_bound 3) in
  let kind = frequency [ (1, run); (8, oneof (kinds ~shard)) ] in
  list_size length (map2 (fun t_us kind -> Obs.Event.make ~t_us kind) t_us kind)

let stream = stream_of (int_range 0 40)
