type row = {
  scheme : string;
  touched : string;
  transfers : int;
  words_moved : int;
  elapsed_us : int;
}

let programs = 6

let program_size = 4096

let core_words = 2 * program_size  (* two programs fit at once *)

let page_size = 256

(* The interactive schedule: rounds of (program, word-offsets touched).
   [touch_fraction] picks how much of the program one interaction
   uses. *)
let schedule ~quick ~touch_fraction ?override seed =
  let rounds = if quick then 6 else 30 in
  let refs_per_interaction = if quick then 200 else 1_000 in
  let rng = Sim.Rng.derive ?override seed in
  let region = max page_size (int_of_float (touch_fraction *. float_of_int program_size)) in
  List.concat
    (List.init rounds (fun _ ->
         List.init programs (fun p ->
             let base = Sim.Rng.int rng (program_size - region + 1) in
             ( p,
               Array.init refs_per_interaction (fun _ ->
                   base + Sim.Rng.int rng region) ))))

let swapping_run ~touched schedule =
  let clock = Sim.Clock.create () in
  let core = Memstore.Level.make clock Memstore.Device.core ~name:"core" ~words:core_words in
  let backing =
    Memstore.Level.make clock Memstore.Device.drum ~name:"drum"
      ~words:(programs * program_size)
  in
  let swapper =
    Swapping.Swapper.create
      {
        Swapping.Swapper.core;
        backing;
        placement = Freelist.Policy.First_fit;
        compact_on_failure = true;
        device = None;
      }
  in
  let ids =
    (* Leave a little slack for allocator tags: programs are declared
       slightly under their nominal size. *)
    Array.init programs (fun i ->
        Swapping.Swapper.add_program swapper
          ~name:(Printf.sprintf "prog%d" i)
          ~size:(program_size - 8))
  in
  List.iter
    (fun (p, refs) ->
      Array.iter
        (fun name ->
          let name = min name (program_size - 9) in
          ignore (Swapping.Swapper.read swapper ids.(p) name))
        refs)
    schedule;
  {
    scheme = "whole-program swapping";
    touched;
    transfers = Swapping.Swapper.swap_ins swapper;
    words_moved = Swapping.Swapper.words_swapped swapper;
    elapsed_us = Sim.Clock.now clock;
  }

let paging_run ~touched schedule =
  let clock = Sim.Clock.create () in
  let engine =
    Paging.Spec.build ~clock ~rng:(Sim.Rng.create 0)
      { Paging.Spec.e_page_size = page_size; e_frames = core_words / page_size;
        e_pages = programs * program_size / page_size; e_device = Memstore.Device.drum;
        e_policy = Paging.Spec.Lru; e_tlb_slots = Some 16; e_compute_us_per_ref = 0 }
  in
  List.iter
    (fun (p, refs) ->
      Array.iter (fun name -> ignore (Paging.Demand.read engine ((p * program_size) + name))) refs)
    schedule;
  {
    scheme = "demand paging";
    touched;
    transfers = Paging.Demand.faults engine;
    words_moved = Paging.Demand.faults engine * page_size;
    elapsed_us = Sim.Clock.now clock;
  }

let measure ?(quick = false) ?seed () =
  let dense = schedule ~quick ~touch_fraction:0.9 ?override:seed 11 in
  let sparse = schedule ~quick ~touch_fraction:0.08 ?override:seed 11 in
  [
    swapping_run ~touched:"~90% of program" dense;
    paging_run ~touched:"~90% of program" dense;
    swapping_run ~touched:"~8% of program" sparse;
    paging_run ~touched:"~8% of program" sparse;
  ]

let run ?quick ?obs:_ ?seed () =
  let rows = measure ?quick ?seed () in
  print_endline "== X4 (extension): whole-program swapping vs demand paging ==";
  print_endline
    "(6 programs x 4K words over 8K words of core, drum-backed, round-robin)\n";
  Metrics.Table.print
    ~headers:[ "interaction touches"; "scheme"; "transfers"; "words moved"; "elapsed (us)" ]
    (List.map
       (fun r ->
         [
           r.touched;
           r.scheme;
           string_of_int r.transfers;
           string_of_int r.words_moved;
           string_of_int r.elapsed_us;
         ])
       rows);
  print_newline ()
