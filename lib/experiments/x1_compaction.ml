type row = {
  variant : string;
  placed : int;
  failed : int;
  compactions : int;
  words_moved : int;
  move_time_us : int;
  final_frag : float;
}

let words = 1 lsl 15

(* Steady small-object churn with a large request every [period]
   events: the requests compaction exists for. *)
let stream rng ~steps ~period =
  let base =
    Workload.Alloc_stream.live_stream rng ~steps
      ~size:(Workload.Alloc_stream.Geometric { mean = 30.; min_size = 1 })
      ~target_live:(words / 45)
  in
  List.concat
    (List.mapi
       (fun i e ->
         if i > 0 && i mod period = 0 then
           [ Workload.Alloc_stream.Alloc { id = 1_000_000 + i; size = words / 12 }; e ]
         else [ e ])
       base)

(* Every variant hands out handles, so compaction can relocate blocks
   under the stream's feet. *)
let serve ~obs ~variant ~policy ~compacting events =
  let mem = Memstore.Physical.create ~name:"core" ~words in
  let a = Freelist.Allocator.create ~obs mem ~base:0 ~len:words ~policy in
  let channel = Memstore.Channel.create (Sim.Clock.create ()) ~word_ns:500 in
  let handles = Freelist.Handle_table.create () in
  let compactions = ref 0 in
  let alloc ~id:_ size =
    let placed =
      match Freelist.Allocator.alloc a size with
      | None when compacting ->
        incr compactions;
        Freelist.Allocator.compact a channel ~relocate:(fun old_addr new_addr ->
            Freelist.Handle_table.relocate handles ~old_addr ~new_addr);
        Freelist.Allocator.alloc a size
      | placed -> placed
    in
    Option.map (Freelist.Handle_table.register handles) placed
  in
  let free h =
    Freelist.Allocator.free a (Freelist.Handle_table.deref handles h);
    Freelist.Handle_table.release handles h
  in
  let t = Workload.Alloc_stream.replay events ~alloc ~free in
  {
    variant;
    placed = t.placed;
    failed = t.unplaced;
    compactions = !compactions;
    words_moved = Memstore.Channel.words_moved channel;
    move_time_us = Memstore.Channel.time_spent_us channel;
    final_frag =
      Metrics.Fragmentation.external_of_free_blocks (Freelist.Allocator.free_block_sizes a);
  }

let measure ?(quick = false) ?(obs = Obs.Sink.null) ?seed () =
  let steps = if quick then 2_000 else 20_000 in
  let events = stream (Sim.Rng.derive ?override:seed 313) ~steps ~period:200 in
  (* Clockless allocators stamp events with their operation counter; a
     compacting alloc can retry, so each variant spans at most twice its
     event count.  The trace records the variants last row first. *)
  let sp = Obs.Sink.splice ?seed obs in
  List.rev
    (List.map
       (fun (label, variant, policy, compacting) ->
         let obs = Obs.Sink.next sp ~config:("x1 variant=" ^ label) in
         Obs.Sink.advance sp (2 * List.length events);
         serve ~obs ~variant ~policy ~compacting events)
       Freelist.Policy.
         [
           ("two-ends", "two-ends, no compaction", Two_ends { small_max = 128 }, false);
           ("compacting", "best-fit + compaction", Best_fit, true);
           ("no-compaction", "best-fit, no compaction", Best_fit, false);
         ])

let run ?quick ?obs ?seed () =
  let rows = measure ?quick ?obs ?seed () in
  print_endline "== X1 (extension): compaction ablation ==";
  print_endline "(small-object churn + periodic large requests; best fit 32K words)\n";
  Metrics.Table.print
    ~headers:[ "variant"; "placed"; "failed"; "compactions"; "words moved"; "move time (us)"; "final frag" ]
    (List.map
       (fun r ->
         [
           r.variant;
           string_of_int r.placed;
           string_of_int r.failed;
           string_of_int r.compactions;
           string_of_int r.words_moved;
           string_of_int r.move_time_us;
           Metrics.Table.fmt_pct r.final_frag;
         ])
       rows);
  print_newline ()
