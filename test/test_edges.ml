(* Edge cases and failure injection across libraries: the smallest
   configurations, degenerate inputs, and deliberately corrupted state
   that the validators must catch. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- smallest configurations --- *)

let test_allocator_minimum_region () =
  let mem = Memstore.Physical.create ~name:"m" ~words:4 in
  let a = Freelist.Allocator.create mem ~base:0 ~len:4 ~policy:Freelist.Policy.First_fit in
  (* The whole region is one minimum block: a 1-word request takes it
     all (payload 2). *)
  let addr = Option.get (Freelist.Allocator.alloc a 1) in
  check_int "payload spans block" 2 (Freelist.Allocator.payload_size a addr);
  check_bool "region exhausted" true (Freelist.Allocator.alloc a 1 = None);
  Freelist.Allocator.free a addr;
  Freelist.Allocator.validate a

let test_buddy_one_word () =
  let b = Freelist.Buddy.create ~words:1 in
  let off = Option.get (Freelist.Buddy.alloc b 1) in
  check_int "only offset" 0 off;
  check_bool "full" true (Freelist.Buddy.alloc b 1 = None);
  Freelist.Buddy.free b off;
  check_int "whole store free" 1 (Freelist.Buddy.largest_free b)

let test_buddy_oversized_request () =
  let b = Freelist.Buddy.create ~words:64 in
  check_bool "too big refused" true (Freelist.Buddy.alloc b 65 = None);
  check_int "granted_size of 1" 1 (Freelist.Buddy.granted_size 1)

let test_single_frame_paging () =
  let trace = Workload.Trace.sequential ~length:10 ~extent:5 in
  let r = Paging.Fault_sim.run ~frames:1 ~policy:(Paging.Replacement.lru ()) trace in
  check_int "every distinct-page switch faults" 10 r.Paging.Fault_sim.faults

let test_every_policy_single_candidate () =
  (* With one frame, choose_victim always sees exactly one candidate;
     no policy may crash or pick anything else. *)
  let rng = Sim.Rng.create 3 in
  let trace = Workload.Trace.uniform (Sim.Rng.split rng) ~length:200 ~extent:9 in
  List.iter
    (fun policy ->
      let r = Paging.Fault_sim.run ~frames:1 ~policy trace in
      check_bool (policy.Paging.Replacement.name ^ " ran") true
        (r.Paging.Fault_sim.faults <= 200))
    (List.map
       (fun spec -> Paging.Spec.instantiate spec ~rng ~trace:(Some trace))
       (Paging.Spec.all_practical @ [ Paging.Spec.Opt ]))

let test_tlb_capacity_one () =
  let tlb = Paging.Tlb.create ~capacity:1 Paging.Tlb.Lru_replacement in
  Paging.Tlb.insert tlb ~key:1 ~value:10;
  Paging.Tlb.insert tlb ~key:2 ~value:20;
  check_bool "only the newest survives" true
    (Paging.Tlb.lookup tlb 2 = Some 20 && Paging.Tlb.lookup tlb 1 = None)

(* --- degenerate workloads --- *)

let test_empty_trace_everywhere () =
  let empty = [||] in
  let r = Paging.Fault_sim.run ~frames:4 ~policy:(Paging.Replacement.fifo ()) empty in
  check_int "no refs" 0 r.Paging.Fault_sim.refs;
  Alcotest.(check (float 1e-9)) "rate 0" 0. (Paging.Fault_sim.fault_rate r);
  check_int "extent 0" 0 (Workload.Trace.extent empty)

let test_negative_page_rejected () =
  check_bool "Invalid_argument" true
    (match
       Paging.Fault_sim.run ~frames:2 ~policy:(Paging.Replacement.lru ()) [| 3; -1; 4 |]
     with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_single_page_program () =
  let engine =
    Paging.Spec.build ~clock:(Sim.Clock.create ()) ~rng:(Sim.Rng.create 0)
      { Paging.Spec.e_page_size = 64; e_frames = 1; e_pages = 1;
        e_device = Memstore.Device.drum; e_policy = Paging.Spec.Lru; e_tlb_slots = None;
        e_compute_us_per_ref = 1 }
  in
  Paging.Demand.run engine (Workload.Trace.sequential ~length:100 ~extent:64);
  check_int "one cold fault only" 1 (Paging.Demand.faults engine)

(* --- failure injection: corrupting simulated memory must be caught --- *)

let test_validate_catches_corrupted_header () =
  let mem = Memstore.Physical.create ~name:"m" ~words:256 in
  let a = Freelist.Allocator.create mem ~base:0 ~len:256 ~policy:Freelist.Policy.First_fit in
  let addr = Option.get (Freelist.Allocator.alloc a 10) in
  ignore (Freelist.Allocator.alloc a 10);
  (* Smash the first block's header (it sits just before the payload). *)
  Memstore.Physical.write mem (addr - 1) 12345L;
  check_bool "validate detects it" true
    (match Freelist.Allocator.validate a with
     | () -> false
     | exception Failure _ -> true)

(* Both tags of a hole rewritten as allocated leave memory well formed:
   the tags agree, the blocks tile the region and no two holes touch.
   Only the hole index still holds the hole, and validate must say so. *)
let test_validate_catches_retagged_hole () =
  let mem = Memstore.Physical.create ~name:"m" ~words:256 in
  let a = Freelist.Allocator.create mem ~base:0 ~len:256 ~policy:Freelist.Policy.First_fit in
  let x = Option.get (Freelist.Allocator.alloc a 10) in
  let y = Option.get (Freelist.Allocator.alloc a 10) in
  ignore (Freelist.Allocator.alloc a 10);
  Freelist.Allocator.free a x;
  Freelist.Allocator.free a y;  (* two holes: x's and y's merged at 0, and the tail *)
  let tag = Int64.of_int (Freelist.Block.tag ~size:24 ~allocated:true) in
  Memstore.Physical.write mem (x - 1) tag;
  Memstore.Physical.write mem (x + 22) tag;
  check_bool "validate names the hole index" true
    (match Freelist.Allocator.validate a with
     | () -> false
     | exception Failure msg -> String.starts_with ~prefix:"validate: hole index" msg)

let test_rice_validate_catches_gap () =
  let mem = Memstore.Physical.create ~name:"m" ~words:64 in
  let c = Segmentation.Rice_chain.create mem ~base:0 ~len:64 in
  let a = Segmentation.Rice_chain.alloc c ~payload:10 ~codeword:1 in
  ignore a;
  ignore (Segmentation.Rice_chain.alloc c ~payload:10 ~codeword:2);
  Segmentation.Rice_chain.free c (Option.get a);
  (* Corrupt the freed block's recorded size. *)
  Memstore.Physical.write mem (Option.get a) 3L;
  check_bool "tiling violation caught" true
    (match Segmentation.Rice_chain.validate c with
     | () -> false
     | exception Failure _ -> true)

(* --- name spaces, smallest and largest --- *)

let test_name_space_one_bit () =
  let ns = Namespace.Name_space.Linear { bits = 1 } in
  check_bool "two names" true (Namespace.Name_space.extent ns = Some 2);
  check_bool "name 1 ok" true (Namespace.Name_space.split ns 1 = (0, 1));
  check_bool "name 2 violates" true
    (match Namespace.Name_space.split ns 2 with
     | _ -> false
     | exception Namespace.Name_space.Name_violation _ -> true)

let test_relocation_zero_limit () =
  let r = Swapping.Relocation.create ~base:0 ~limit:0 in
  check_bool "nothing addressable" true
    (match Swapping.Relocation.translate r 0 with
     | _ -> false
     | exception Swapping.Relocation.Limit_violation _ -> true)

(* --- charts with degenerate data --- *)

let test_charts_degenerate () =
  check_bool "single bar" true (String.length (Metrics.Chart.bars [ ("x", 5.) ]) > 0);
  check_bool "all-zero bars" true
    (String.length (Metrics.Chart.bars [ ("x", 0.); ("y", 0.) ]) > 0);
  check_bool "single point series" true
    (String.length
       (Metrics.Chart.series ~x_label:"x" ~y_label:"y" [ ("s", [ (1., 1.) ]) ])
    > 0)

(* --- histogram percentile extremes --- *)

let test_histogram_extremes () =
  let h = Metrics.Histogram.log2 ~max_exponent:4 in
  check_int "empty percentile" 0 (Metrics.Histogram.percentile h 0.5);
  Metrics.Histogram.add h 1_000_000;
  check_int "counted in the last bucket" 1
    (snd (Metrics.Histogram.bucket_counts h).(5));
  check_int "exact past the last bucket" 1_000_000 (Metrics.Histogram.percentile h 1.0)

(* --- machine: smallest program --- *)

let test_machine_halt_only () =
  let clock = Sim.Clock.create () in
  let level = Memstore.Level.make clock Memstore.Device.core ~name:"c" ~words:16 in
  let cpu =
    Machine.Cpu.create (Machine.Addressing.absolute level)
      ~code_at:(fun pc -> { Machine.Addressing.segment = 0; offset = pc })
  in
  Machine.Cpu.load_program cpu [| Machine.Isa.Halt |];
  Machine.Cpu.run cpu;
  check_int "one step" 1 (Machine.Cpu.steps cpu);
  (* Stepping a halted CPU is a no-op. *)
  Machine.Cpu.step cpu;
  check_int "still one step" 1 (Machine.Cpu.steps cpu)

let () =
  Alcotest.run "edges"
    [
      ( "smallest configurations",
        [
          Alcotest.test_case "allocator minimum region" `Quick test_allocator_minimum_region;
          Alcotest.test_case "buddy one word" `Quick test_buddy_one_word;
          Alcotest.test_case "buddy oversized" `Quick test_buddy_oversized_request;
          Alcotest.test_case "single frame paging" `Quick test_single_frame_paging;
          Alcotest.test_case "single candidate policies" `Quick test_every_policy_single_candidate;
          Alcotest.test_case "tlb capacity one" `Quick test_tlb_capacity_one;
        ] );
      ( "degenerate workloads",
        [
          Alcotest.test_case "empty trace" `Quick test_empty_trace_everywhere;
          Alcotest.test_case "single page program" `Quick test_single_page_program;
          Alcotest.test_case "negative page" `Quick test_negative_page_rejected;
        ] );
      ( "failure injection",
        [
          Alcotest.test_case "corrupted header" `Quick test_validate_catches_corrupted_header;
          Alcotest.test_case "hole retagged as allocated" `Quick test_validate_catches_retagged_hole;
          Alcotest.test_case "rice tiling" `Quick test_rice_validate_catches_gap;
        ] );
      ( "limits",
        [
          Alcotest.test_case "one-bit name space" `Quick test_name_space_one_bit;
          Alcotest.test_case "zero limit register" `Quick test_relocation_zero_limit;
          Alcotest.test_case "degenerate charts" `Quick test_charts_degenerate;
          Alcotest.test_case "histogram extremes" `Quick test_histogram_extremes;
          Alcotest.test_case "halt-only program" `Quick test_machine_halt_only;
        ] );
    ]
