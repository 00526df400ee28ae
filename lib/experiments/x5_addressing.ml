type row = {
  unit_label : string;
  answer : int64;
  instructions : int;
  elapsed_us : int;
  faults : int;
  traps : string;
}

let n_of quick = if quick then 40 else 200

let access segment offset = { Machine.Addressing.segment; offset }

let linear_code pc = access 0 pc

(* Fill then sum through the given unit; return what the run cost. *)
let execute ~quick cpu ~clock ~seg ~data ~scratch ~faults ~unit_label ~traps =
  let n = n_of quick in
  Machine.Cpu.load_program cpu (Machine.Programs.fill_array ~seg ~data ~n ~scratch ());
  Machine.Cpu.run cpu;
  Machine.Cpu.reset cpu;
  Machine.Cpu.load_program cpu (Machine.Programs.sum_array ~seg ~data ~n ~scratch ());
  Machine.Cpu.run cpu;
  {
    unit_label;
    answer = Machine.Cpu.acc cpu;
    instructions = Machine.Cpu.steps cpu;
    elapsed_us = Sim.Clock.now clock;
    faults = faults ();
    traps;
  }

let absolute_row ~quick =
  let clock = Sim.Clock.create () in
  let level = Memstore.Level.make clock Memstore.Device.core ~name:"core" ~words:2048 in
  let cpu = Machine.Cpu.create (Machine.Addressing.absolute level) ~code_at:linear_code in
  execute ~quick cpu ~clock ~seg:0 ~data:1024 ~scratch:1500 ~faults:(fun () -> 0)
    ~unit_label:"absolute" ~traps:"physical bound only"

let relocated_row ~quick =
  let clock = Sim.Clock.create () in
  let level = Memstore.Level.make clock Memstore.Device.core ~name:"core" ~words:4096 in
  let registers = Swapping.Relocation.create ~base:2048 ~limit:1600 in
  let cpu =
    Machine.Cpu.create (Machine.Addressing.relocated level registers) ~code_at:linear_code
  in
  execute ~quick cpu ~clock ~seg:0 ~data:1024 ~scratch:1500 ~faults:(fun () -> 0)
    ~unit_label:"relocation+limit" ~traps:"limit register"

let paged_row ~quick =
  let page_size = 64 and frames = 8 and pages = 64 in
  let clock = Sim.Clock.create () in
  let engine =
    Paging.Spec.build ~clock ~rng:(Sim.Rng.create 0)
      { Paging.Spec.e_page_size = page_size; e_frames = frames; e_pages = pages;
        e_device = Memstore.Device.drum; e_policy = Paging.Spec.Lru; e_tlb_slots = Some 8;
        e_compute_us_per_ref = 1 }
  in
  let cpu = Machine.Cpu.create (Machine.Addressing.paged engine) ~code_at:linear_code in
  execute ~quick cpu ~clock ~seg:0 ~data:1024 ~scratch:1500
    ~faults:(fun () -> Paging.Demand.faults engine)
    ~unit_label:"demand paged" ~traps:"name-space bound"

let segmented_row ~quick =
  let clock = Sim.Clock.create () in
  let core = Memstore.Level.make clock Memstore.Device.core ~name:"core" ~words:2048 in
  let backing = Memstore.Level.make clock Memstore.Device.drum ~name:"drum" ~words:8192 in
  let store =
    Segmentation.Segment_store.create
      {
        Segmentation.Segment_store.core;
        backing;
        placement = Freelist.Policy.Best_fit;
        replacement = Segmentation.Segment_store.Cyclic;
        max_segment = Some 1024;
      }
  in
  let code_seg = Segmentation.Segment_store.define store ~name:"code" ~length:256 () in
  let data_seg = Segmentation.Segment_store.define store ~name:"data" ~length:512 () in
  let unit = Machine.Addressing.segmented store ~segments:[| code_seg; data_seg |] in
  let cpu = Machine.Cpu.create unit ~code_at:linear_code in
  execute ~quick cpu ~clock ~seg:1 ~data:0 ~scratch:400
    ~faults:(fun () -> Segmentation.Segment_store.segment_faults store)
    ~unit_label:"segmented (PRT)" ~traps:"per-segment subscript check"

let measure ?(quick = false) () =
  [ absolute_row ~quick; relocated_row ~quick; paged_row ~quick; segmented_row ~quick ]

let run ?quick ?obs:_ ?seed:_ () =
  let rows = measure ?quick () in
  print_endline "== X5 (extension): one program, every addressing mechanism ==";
  print_endline "(fill an array then sum it; identical encoded program throughout)\n";
  Metrics.Table.print
    ~headers:[ "addressing unit"; "answer"; "instructions"; "elapsed (us)"; "faults"; "what traps" ]
    (List.map
       (fun r ->
         [
           r.unit_label;
           Int64.to_string r.answer;
           string_of_int r.instructions;
           string_of_int r.elapsed_us;
           string_of_int r.faults;
           r.traps;
         ])
       rows);
  print_newline ()
