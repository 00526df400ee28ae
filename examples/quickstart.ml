(* Quickstart: assemble a dynamic storage allocation system from the
   paper's design space, run a workload through it, and look at both
   sides of the fragmentation coin.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  print_endline "--- 1. a paged system (linear name space, uniform units) ---\n";
  (* Pick a point in the four-characteristic space... *)
  let system =
    {
      Dsas.System.name = "quickstart";
      characteristics =
        {
          Namespace.Characteristics.name_space = Namespace.Name_space.Linear { bits = 18 };
          predictive = Namespace.Characteristics.No_predictions;
          artificial_contiguity = true;
          allocation_unit = Namespace.Characteristics.Uniform 256;
        };
      core_words = 4 * 1024;
      core_device = Memstore.Device.core;
      backing_words = 64 * 1024;
      backing_device = Memstore.Device.drum;
      mechanism =
        Dsas.System.Paged
          {
            page_size = 256;
            frames = 16;
            policy = Paging.Spec.Lru;
            tlb_capacity = 8;
            device = Device.Spec.legacy;
          };
      compute_us_per_ref = 2;
    }
  in
  List.iter
    (fun (k, v) -> Printf.printf "  %-22s %s\n" k v)
    (Namespace.Characteristics.describe system.Dsas.System.characteristics);
  (* ... and run a program with working-set locality over it. *)
  let rng = Sim.Rng.create 1 in
  (* Locality in page-sized blocks: an 8-page working set drifting
     through a 128-page name space. *)
  let block_trace =
    Workload.Trace.working_set_phases rng ~length:20_000 ~extent:128 ~set_size:8
      ~phase_length:2_500 ~locality:0.95
  in
  let trace = Array.map (fun b -> (b * 256) + Sim.Rng.int rng 256) block_trace in
  let report = Dsas.System.run_linear system trace in
  print_newline ();
  Metrics.Table.print ~headers:Dsas.System.report_headers
    (Dsas.System.report_rows [ report ]);

  print_endline "\n--- 2. a variable-unit allocator (nonuniform units) ---\n";
  let words = 4096 in
  let mem = Memstore.Physical.create ~name:"core" ~words in
  let heap =
    Freelist.Allocator.create mem ~base:0 ~len:words ~policy:Freelist.Policy.Best_fit
  in
  (* Allocate a few blocks, store data, release some. *)
  let a = Option.get (Freelist.Allocator.alloc heap 100) in
  let b = Option.get (Freelist.Allocator.alloc heap 400) in
  let c = Option.get (Freelist.Allocator.alloc heap 50) in
  Memstore.Physical.write mem a 42L;
  Printf.printf "allocated a=%d b=%d c=%d; a holds %Ld\n" a b c
    (Memstore.Physical.read mem a);
  Freelist.Allocator.free heap b;
  Printf.printf "after freeing b: %d live words, free holes %s, external frag %s\n"
    (Freelist.Allocator.live_words heap)
    (String.concat "+" (List.map string_of_int (Freelist.Allocator.free_block_sizes heap)))
    (Metrics.Table.fmt_pct
       (Metrics.Fragmentation.external_of_free_blocks
          (Freelist.Allocator.free_block_sizes heap)));
  Freelist.Allocator.free heap a;
  Freelist.Allocator.free heap c;
  Printf.printf "after freeing all: one hole of %d words (coalesced)\n"
    (List.hd (Freelist.Allocator.free_block_sizes heap));

  print_endline "\n--- 3. where next ---\n";
  print_endline "  dune exec bin/dsas_sim.exe -- list      (the paper's experiments)";
  print_endline "  dune exec bin/dsas_sim.exe -- run fig3  (one figure, full scale)";
  print_endline "  dune exec bin/dsas_sim.exe -- run all   (regenerate everything)"
