(* Tests for the word machine: ISA encoding, the CPU, the canned
   programs, and the same program running through every addressing
   unit of the taxonomy. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_i64 = Alcotest.(check int64)

(* --- ISA --- *)

let test_encode_decode_known () =
  let roundtrip i = Machine.Isa.decode (Machine.Isa.encode i) in
  List.iter
    (fun i -> check_bool "roundtrip" true (roundtrip i = i))
    [
      Machine.Isa.Load (Machine.Isa.direct ~seg:3 100);
      Machine.Isa.Store (Machine.Isa.indexed 7);
      Machine.Isa.Loadi 42;
      Machine.Isa.Addi (-42);
      Machine.Isa.Setx 0;
      Machine.Isa.Addx (-5);
      Machine.Isa.Jmp 9;
      Machine.Isa.Jnz 0;
      Machine.Isa.Jlt 17;
      Machine.Isa.Jxlt 3;
      Machine.Isa.Advise_will (Machine.Isa.direct 512);
      Machine.Isa.Advise_wont (Machine.Isa.direct ~seg:1 0);
      Machine.Isa.Halt;
    ]

let test_decode_garbage_rejected () =
  check_bool "opcode 0 invalid" true
    (match Machine.Isa.decode 0L with
     | _ -> false
     | exception Invalid_argument _ -> true);
  check_bool "opcode 63 invalid" true
    (match Machine.Isa.decode 63L with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_fields_fit () =
  check_bool "negative jump rejected" false (Machine.Isa.fields_fit (Machine.Isa.Jmp (-1)));
  check_bool "negative immediate fine" true (Machine.Isa.fields_fit (Machine.Isa.Loadi (-1)));
  check_bool "huge segment rejected" false
    (Machine.Isa.fields_fit (Machine.Isa.Load (Machine.Isa.direct ~seg:5000 0)));
  check_bool "encode rejects unfit" true
    (match Machine.Isa.encode (Machine.Isa.Jmp (-1)) with
     | _ -> false
     | exception Invalid_argument _ -> true)

let isa_roundtrip_property =
  let operand_gen =
    QCheck.Gen.(
      map3
        (fun seg off indexed -> { Machine.Isa.seg; off; indexed })
        (int_bound 4095) (int_bound 100000) bool)
  in
  let instr_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun o -> Machine.Isa.Load o) operand_gen;
          map (fun o -> Machine.Isa.Store o) operand_gen;
          map (fun o -> Machine.Isa.Add o) operand_gen;
          map (fun o -> Machine.Isa.Sub o) operand_gen;
          map (fun n -> Machine.Isa.Loadi n) (int_range (-100000) 100000);
          map (fun n -> Machine.Isa.Addi n) (int_range (-100000) 100000);
          map (fun n -> Machine.Isa.Setx n) (int_range (-100000) 100000);
          map (fun n -> Machine.Isa.Addx n) (int_range (-100000) 100000);
          map (fun n -> Machine.Isa.Jmp n) (int_bound 100000);
          map (fun n -> Machine.Isa.Jnz n) (int_bound 100000);
          map (fun n -> Machine.Isa.Jlt n) (int_bound 100000);
          map (fun n -> Machine.Isa.Jxlt n) (int_bound 100000);
          map (fun o -> Machine.Isa.Advise_will o) operand_gen;
          map (fun o -> Machine.Isa.Advise_wont o) operand_gen;
          return Machine.Isa.Halt;
        ])
  in
  QCheck.Test.make ~name:"isa encode/decode roundtrip" ~count:500
    (QCheck.make instr_gen)
    (fun i -> Machine.Isa.decode (Machine.Isa.encode i) = i)

(* --- Assembler --- *)

let test_assembler_labels_and_symbols () =
  (* The sum program written symbolically. *)
  let open Machine.Assembler in
  let program =
    assemble
      ~symbols:[ ("data", (0, 1024)); ("total", (0, 1500)) ]
      [
        Setx 99;
        Loadi 0;
        Store (sym "total");
        Label "loop";
        Load (sym "total");
        Add (sym_x "data");
        Store (sym "total");
        Addx (-1);
        Jxlt "done";
        Jmp "loop";
        Label "done";
        Load (sym "total");
        Halt;
      ]
  in
  (* Must equal the hand-assembled Programs.sum_array. *)
  let expected = Machine.Programs.sum_array ~data:1024 ~n:100 ~scratch:1500 () in
  check_bool "matches hand assembly" true (program = expected)

let test_assembler_displacement () =
  let open Machine.Assembler in
  let program =
    assemble ~symbols:[ ("arr", (2, 50)) ] [ Load (sym ~disp:7 "arr"); Halt ]
  in
  check_bool "seg+disp resolved" true
    (program.(0) = Machine.Isa.Load (Machine.Isa.direct ~seg:2 57))

let test_assembler_errors () =
  let open Machine.Assembler in
  let fails items =
    match assemble items with
    | _ -> false
    | exception Assembly_error _ -> true
  in
  check_bool "undefined label" true (fails [ Jmp "nowhere"; Halt ]);
  check_bool "duplicate label" true (fails [ Label "a"; Label "a"; Halt ]);
  check_bool "undefined symbol" true (fails [ Load (sym "ghost"); Halt ])

(* --- CPU construction under each addressing unit --- *)

let n = 100

let access segment offset = { Machine.Addressing.segment; offset }

(* Each builder yields (cpu, seg, data, scratch): 256 words of data at
   [seg:data..], a scratch cell at [seg:scratch]. *)

let absolute_cpu () =
  let clock = Sim.Clock.create () in
  let level = Memstore.Level.make clock Memstore.Device.core ~name:"core" ~words:2048 in
  let unit = Machine.Addressing.absolute level in
  (Machine.Cpu.create unit ~code_at:(fun pc -> access 0 pc), 0, 1024, 1024 + 256)

let relocated_cpu () =
  let clock = Sim.Clock.create () in
  let level = Memstore.Level.make clock Memstore.Device.core ~name:"core" ~words:4096 in
  let registers = Swapping.Relocation.create ~base:2000 ~limit:1500 in
  let unit = Machine.Addressing.relocated level registers in
  let cpu = Machine.Cpu.create unit ~code_at:(fun pc -> access 0 pc) in
  (cpu, level, registers, 1024, 1024 + 256)

let paged_cpu ?(frames = 8) () =
  let engine =
    Paging.Spec.build ~clock:(Sim.Clock.create ()) ~rng:(Sim.Rng.create 0)
      { Paging.Spec.e_page_size = 64; e_frames = frames; e_pages = 64;
        e_device = Memstore.Device.drum; e_policy = Paging.Spec.Lru; e_tlb_slots = None;
        e_compute_us_per_ref = 1 }
  in
  let unit = Machine.Addressing.paged engine in
  (Machine.Cpu.create unit ~code_at:(fun pc -> access 0 pc), engine, 1024, 1024 + 256)

let segmented_cpu () =
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
  let data_seg = Segmentation.Segment_store.define store ~name:"data" ~length:257 () in
  ignore code_seg;
  let unit = Machine.Addressing.segmented store ~segments:[| code_seg; data_seg |] in
  (Machine.Cpu.create unit ~code_at:(fun pc -> access 0 pc), store, 1, 0, 256)

(* Fill data with 0..n-1, then sum it; the accumulator must hold
   n(n-1)/2 regardless of the addressing unit. *)
let fill_then_sum cpu ~seg ~data ~scratch =
  Machine.Cpu.load_program cpu (Machine.Programs.fill_array ~seg ~data ~n ~scratch ());
  Machine.Cpu.run cpu;
  check_bool "fill halted" true (Machine.Cpu.halted cpu);
  Machine.Cpu.reset cpu;
  Machine.Cpu.load_program cpu (Machine.Programs.sum_array ~seg ~data ~n ~scratch ());
  Machine.Cpu.run cpu;
  check_i64 "sum = n(n-1)/2" (Int64.of_int (n * (n - 1) / 2)) (Machine.Cpu.acc cpu)

let test_program_on_absolute () =
  let cpu, seg, data, scratch = absolute_cpu () in
  fill_then_sum cpu ~seg ~data ~scratch

let test_program_on_relocated () =
  let cpu, _, _, data, scratch = relocated_cpu () in
  fill_then_sum cpu ~seg:0 ~data ~scratch

let test_program_on_paged () =
  let cpu, engine, data, scratch = paged_cpu () in
  fill_then_sum cpu ~seg:0 ~data ~scratch;
  check_bool "code and data page faults occurred" true (Paging.Demand.faults engine > 0)

let test_program_on_segmented () =
  let cpu, store, seg, data, scratch = segmented_cpu () in
  fill_then_sum cpu ~seg ~data ~scratch;
  check_bool "segments were fetched" true
    (Segmentation.Segment_store.segment_faults store >= 2)

(* --- relocation while the program is suspended --- *)

let test_relocation_mid_run () =
  let cpu, level, registers, data, scratch = relocated_cpu () in
  Machine.Cpu.load_program cpu (Machine.Programs.fill_array ~data ~n ~scratch ());
  Machine.Cpu.run cpu;
  Machine.Cpu.reset cpu;
  Machine.Cpu.load_program cpu (Machine.Programs.sum_array ~data ~n ~scratch ());
  (* Execute half the summation, then move the whole program image to a
     different absolute region, update the relocation register, and
     resume.  The program cannot tell. *)
  for _ = 1 to 250 do
    Machine.Cpu.step cpu
  done;
  check_bool "mid-run" true (not (Machine.Cpu.halted cpu));
  let mem = Memstore.Level.physical level in
  Memstore.Physical.blit ~src:mem ~src_off:2000 ~dst:mem ~dst_off:100 ~len:1500;
  Swapping.Relocation.relocate registers ~base:100;
  Machine.Cpu.run cpu;
  check_i64 "sum unaffected by relocation" (Int64.of_int (n * (n - 1) / 2))
    (Machine.Cpu.acc cpu)

(* --- violations trap, per unit --- *)

let test_violations () =
  let cpu, seg, data, scratch = absolute_cpu () in
  ignore (seg, data, scratch);
  Machine.Cpu.load_program cpu [| Machine.Isa.Load (Machine.Isa.direct 9999) |];
  check_bool "absolute: bound violation" true
    (match Machine.Cpu.step cpu with
     | () -> false
     | exception Memstore.Physical.Bound_violation _ -> true);
  let cpu, _, _, _, _ = relocated_cpu () in
  Machine.Cpu.load_program cpu [| Machine.Isa.Load (Machine.Isa.direct 1500) |];
  check_bool "relocated: limit violation" true
    (match Machine.Cpu.step cpu with
     | () -> false
     | exception Swapping.Relocation.Limit_violation _ -> true);
  let cpu, _, _, _ = paged_cpu () in
  Machine.Cpu.load_program cpu [| Machine.Isa.Load (Machine.Isa.direct 999999) |];
  check_bool "paged: name-space violation" true
    (match Machine.Cpu.step cpu with
     | () -> false
     | exception Memstore.Physical.Bound_violation _ -> true);
  let cpu, _, seg, _, _ = segmented_cpu () in
  Machine.Cpu.load_program cpu [| Machine.Isa.Load (Machine.Isa.direct ~seg 300) |];
  check_bool "segmented: subscript violation" true
    (match Machine.Cpu.step cpu with
     | () -> false
     | exception Segmentation.Descriptor.Subscript_violation _ -> true);
  let cpu, _, _, _ = paged_cpu () in
  Machine.Cpu.load_program cpu [| Machine.Isa.Load (Machine.Isa.direct ~seg:2 0) |];
  check_bool "linear unit rejects segment names" true
    (match Machine.Cpu.step cpu with
     | () -> false
     | exception Machine.Addressing.No_segments _ -> true)

(* --- fuel --- *)

let test_out_of_fuel () =
  let cpu, _, _, _ = absolute_cpu () in
  Machine.Cpu.load_program cpu [| Machine.Isa.Jmp 0 |];
  check_bool "runaway trapped" true
    (match Machine.Cpu.run ~fuel:1000 cpu with
     | () -> false
     | exception Machine.Cpu.Out_of_fuel steps -> steps = 1000)

(* --- access patterns seen by the pager --- *)

let test_stride_stresses_pager () =
  let faults stride =
    let cpu, engine, data, scratch = paged_cpu ~frames:4 () in
    Machine.Cpu.load_program cpu
      (Machine.Programs.stride_sum ~data ~terms:32 ~stride ~scratch ());
    (* stride * terms must stay within the 64-page name space *)
    Machine.Cpu.run cpu;
    Paging.Demand.faults engine
  in
  let unit_stride = faults 1 and page_stride = faults 64 in
  check_bool "page-sized stride faults more" true (page_stride > 2 * unit_stride)

let test_copy_between_segments () =
  let cpu, _, seg, data, _ = segmented_cpu () in
  (* Write a few words into the data segment, copy them 100 words up. *)
  for i = 0 to 9 do
    Machine.Cpu.write_data cpu (access seg (data + i)) (Int64.of_int (70 + i))
  done;
  Machine.Cpu.load_program cpu
    (Machine.Programs.copy_array ~seg ~src:data ~dst:(data + 100) ~n:10 ());
  Machine.Cpu.run cpu;
  for i = 0 to 9 do
    check_i64 "copied" (Int64.of_int (70 + i))
      (Machine.Cpu.read_data cpu (access seg (data + 100 + i)))
  done

(* --- data-dependent indexing through Ldx --- *)

let test_gather_sum () =
  let cpu, seg, data, scratch = absolute_cpu () in
  ignore seg;
  (* idx holds a permutation of 0..19 shifted into data's second half;
     data holds value 3i at slot i. *)
  let idx = data and values = data + 32 in
  let rng = Sim.Rng.create 7 in
  let perm = Array.init 20 (fun i -> i) in
  Sim.Rng.shuffle rng perm;
  Array.iteri
    (fun i p ->
      Machine.Cpu.write_data cpu (access 0 (idx + i)) (Int64.of_int (32 + p));
      Machine.Cpu.write_data cpu (access 0 (values + i)) (Int64.of_int (3 * i)))
    perm;
  Machine.Cpu.load_program cpu
    (Machine.Programs.gather_sum ~idx ~data ~n:20 ~scratch ());
  Machine.Cpu.run cpu;
  (* Sum over a permutation of 3*0..3*19 = 3 * 190. *)
  check_i64 "gather over permutation" (Int64.of_int (3 * 190)) (Machine.Cpu.acc cpu)

let test_ldx_roundtrip_and_assembler () =
  check_bool "isa roundtrip" true
    (Machine.Isa.decode (Machine.Isa.encode (Machine.Isa.Ldx (Machine.Isa.direct ~seg:2 9)))
    = Machine.Isa.Ldx (Machine.Isa.direct ~seg:2 9));
  let open Machine.Assembler in
  let program = assemble ~symbols:[ ("v", (0, 7)) ] [ Ldx (sym "v"); Halt ] in
  check_bool "assembles" true (program.(0) = Machine.Isa.Ldx (Machine.Isa.direct 7))

(* --- the M44 predictive instructions, executed by a program --- *)

let test_advice_instructions_from_program () =
  let run advice =
    let cpu, engine, data, scratch = paged_cpu ~frames:6 () in
    Machine.Cpu.load_program cpu
      (Machine.Programs.advised_sweep ~data ~chunk_words:64 ~chunks:8 ~scratch ~advice ());
    Machine.Cpu.run ~fuel:10_000 cpu;
    (Machine.Cpu.acc cpu, Paging.Demand.faults engine, Paging.Demand.prefetches engine)
  in
  let sum_plain, faults_plain, prefetch_plain = run false in
  let sum_advised, faults_advised, prefetch_advised = run true in
  check_i64 "same answer either way" sum_plain sum_advised;
  check_int "no advice, no prefetch" 0 prefetch_plain;
  check_bool "advice prefetched" true (prefetch_advised > 0);
  check_bool "advice cut demand faults" true (faults_advised < faults_plain)

let () =
  Alcotest.run "machine"
    [
      ( "isa",
        [
          Alcotest.test_case "known roundtrips" `Quick test_encode_decode_known;
          Alcotest.test_case "garbage rejected" `Quick test_decode_garbage_rejected;
          Alcotest.test_case "fields fit" `Quick test_fields_fit;
          QCheck_alcotest.to_alcotest isa_roundtrip_property;
        ] );
      ( "assembler",
        [
          Alcotest.test_case "labels+symbols" `Quick test_assembler_labels_and_symbols;
          Alcotest.test_case "displacement" `Quick test_assembler_displacement;
          Alcotest.test_case "errors" `Quick test_assembler_errors;
        ] );
      ( "programs",
        [
          Alcotest.test_case "absolute" `Quick test_program_on_absolute;
          Alcotest.test_case "relocated" `Quick test_program_on_relocated;
          Alcotest.test_case "paged" `Quick test_program_on_paged;
          Alcotest.test_case "segmented" `Quick test_program_on_segmented;
          Alcotest.test_case "copy between names" `Quick test_copy_between_segments;
          Alcotest.test_case "gather via Ldx" `Quick test_gather_sum;
          Alcotest.test_case "Ldx roundtrip" `Quick test_ldx_roundtrip_and_assembler;
        ] );
      ( "addressing",
        [
          Alcotest.test_case "relocation mid-run" `Quick test_relocation_mid_run;
          Alcotest.test_case "violations trap" `Quick test_violations;
          Alcotest.test_case "out of fuel" `Quick test_out_of_fuel;
          Alcotest.test_case "stride vs pager" `Quick test_stride_stresses_pager;
          Alcotest.test_case "advice instructions" `Quick test_advice_instructions_from_program;
        ] );
    ]
