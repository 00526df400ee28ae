(* Times Parallel.Sharded.run_alloc and run_paging at widths 1 and 2,
   for the perf gate (gate.py), which holds width 2 to within 35% of
   width 1 and width 1 to a ceiling.

     dune exec bench/widths.exe

   prints one JSON object: for each engine, the fastest run at width 1
   and at width 2, in seconds.  Each engine runs [rounds] times at each
   width, alternating, because load from elsewhere on the host only
   ever slows a run down.  The shard count is fixed, so both widths do
   the same work and produce the same bytes. *)

let rounds = 20

let seconds f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let fastest_per_width run =
  let best = [| infinity; infinity |] in
  run ~domains:1;
  run ~domains:2;
  for _ = 1 to rounds do
    for w = 1 to 2 do
      best.(w - 1) <- Float.min best.(w - 1) (seconds (fun () -> run ~domains:w))
    done
  done;
  Printf.sprintf "[%.6f, %.6f]" best.(0) best.(1)

let () =
  let alloc = Parallel.Sharded.alloc_config ~ops_per_shard:50_000 ~seed:0 () in
  let paging = Parallel.Sharded.paging_config ~refs_per_shard:2_000 ~seed:0 () in
  let alloc_s =
    fastest_per_width (fun ~domains -> ignore (Parallel.Sharded.run_alloc ~domains alloc))
  in
  let paging_s =
    fastest_per_width (fun ~domains -> ignore (Parallel.Sharded.run_paging ~domains paging))
  in
  Printf.printf "{\"alloc\": %s, \"paging\": %s}\n" alloc_s paging_s
