(* X11 (extension): sharded multicore execution, supervised.

   The paper's systems serialized the supervisor; this extension asks
   what the simulator itself can say when the machine has several
   processors.  The answer implemented here: shard the workload, give
   every shard its own clocked state, and make the merged observable
   record a pure function of the workload — so the domain count is an
   execution width, never an input.  The subject run always goes
   through the supervisor (bounded restarts over crash-consistent
   checkpoints), optionally under an injected kill schedule; the
   experiment proves the contract on the spot by comparing the
   subject's merged trace against an unsupervised width-1 reference,
   byte for byte.  Recovery must be invisible in the engine trace —
   crashes, restarts and checkpoints appear only in the separate
   supervision stream. *)

let fault_columns (r : _ Par_chaos.recovery) shard =
  match r.subject with
  | Error _ -> [ "-"; "-"; "-" ]
  | Ok s ->
    let o : Parallel.Supervisor.outcome = s.outcomes.(shard) in
    [
      string_of_int o.o_crashes;
      string_of_int o.o_restarts;
      string_of_int o.o_checkpoints;
    ]

let verdict name (r : _ Par_chaos.recovery) =
  match r.subject with
  | Error f ->
    Printf.printf "%-44s ESCALATED: %s\n" name (Resilience.Failure.to_string f)
  | Ok s ->
    Printf.printf "%-44s %s (%d events)\n" name
      (if s.identical then "identical" else "DIVERGED")
      (Array.length r.reference_trace)

let supervision_line name (r : _ Par_chaos.recovery) =
  match r.subject with
  | Error _ -> Printf.printf "%-8s escalated\n" name
  | Ok s ->
    Printf.printf "%-8s crashes %d, restarts %d, checkpoints %d (%d supervision events)\n"
      name s.crashes s.restarts s.checkpoints (Array.length s.supervision)

(* The alloc and paging workloads; their counts do not depend on the
   seed. *)
let configs ~quick ~seed =
  ( Parallel.Sharded.alloc_config ~ops_per_shard:(if quick then 4_000 else 20_000) ~seed (),
    Parallel.Sharded.paging_config ~refs_per_shard:(if quick then 2_000 else 8_000) ~seed () )

let checkpoint_every = 256

(* Both engines run under the one kill list, so a kill must fire in
   each. *)
let check_kills ~quick kills =
  let (a : Parallel.Sharded.alloc_config), (p : Parallel.Sharded.paging_config) =
    configs ~quick ~seed:0
  in
  Parallel.Supervisor.check_kills
    ~shards:(min a.a_shards p.p_shards)
    ~steps:(min a.a_ops_per_shard p.p_refs_per_shard)
    ~checkpoint_every kills

let run ?(quick = false) ?(obs = Obs.Sink.null) ?seed ?(domains = 1)
    ?(kills = []) () =
  if domains < 1 then invalid_arg "X11_parallel.run: domains < 1";
  (* seed 0 is the no-override stream (0 lxor site = site). *)
  let master = match seed with Some s -> s | None -> 0 in
  let alloc_cfg, paging_cfg = configs ~quick ~seed:master in
  (* Unsupervised width-1 reference, then the supervised subject at the
     requested width under the kill schedule; the contract says the
     merged engine streams and every count must match exactly. *)
  let a = Par_chaos.recover_alloc ~domains ~kills ~checkpoint_every alloc_cfg in
  let p = Par_chaos.recover_paging ~domains ~kills ~checkpoint_every paging_cfg in
  print_endline "== X11: sharded multicore execution ==";
  Printf.printf
    "(%d alloc shards, %d paging shards; shard count fixes the workload, \
     domains only the width; subject runs supervised%s)\n\n"
    alloc_cfg.Parallel.Sharded.a_shards paging_cfg.Parallel.Sharded.p_shards
    (if kills = [] then ""
     else Printf.sprintf ", %d injected kill(s)" (List.length kills));
  print_endline "-- lock-free fixed-size allocation (free stack + per-shard magazines) --";
  Metrics.Table.print
    ~headers:
      [ "shard"; "allocs"; "frees"; "denied"; "refills"; "flushes"; "live";
        "t (ms)"; "crashes"; "restarts"; "ckpts" ]
    (Array.to_list
       (Array.map
          (fun (s : Parallel.Sharded.shard_alloc) ->
            [
              string_of_int s.sa_shard;
              string_of_int s.sa_allocs;
              string_of_int s.sa_frees;
              string_of_int s.sa_failures;
              string_of_int s.sa_refills;
              string_of_int s.sa_flushes;
              string_of_int s.sa_live;
              Printf.sprintf "%.1f" (float_of_int s.sa_elapsed_us /. 1000.);
            ]
            @ fault_columns a s.sa_shard)
          a.reference.Parallel.Sharded.ar_shards));
  print_newline ();
  print_endline "-- sharded demand paging (one engine per shard, private clocks) --";
  Metrics.Table.print
    ~headers:
      [ "shard"; "refs"; "faults"; "writebacks"; "t (ms)"; "crashes";
        "restarts"; "ckpts" ]
    (Array.to_list
       (Array.map
          (fun (s : Parallel.Sharded.shard_paging) ->
            [
              string_of_int s.sp_shard;
              string_of_int s.sp_refs;
              string_of_int s.sp_faults;
              string_of_int s.sp_writebacks;
              Printf.sprintf "%.1f" (float_of_int s.sp_elapsed_us /. 1000.);
            ]
            @ fault_columns p s.sp_shard)
          p.reference.Parallel.Sharded.pr_shards));
  print_newline ();
  print_endline "-- supervision: bounded restarts over crash-consistent checkpoints --";
  supervision_line "alloc" a;
  supervision_line "paging" p;
  print_newline ();
  print_endline
    "-- determinism contract: recovered trace vs width-1 unsupervised reference --";
  verdict "alloc merged trace:" a;
  verdict "paging merged trace:" p;
  print_newline ();
  (* Splice the streams into the experiment's sink: engine traces as
     runs 0-1, supervision streams (a different vocabulary, so their
     own segments) as runs 2-3, each at one past the last stamp before
     it.  An escalated run emitted nothing, so emission is all-or-none:
     a partial trace would not re-check. *)
  match (a.subject, p.subject) with
  | Ok a, Ok p ->
    let sp = Obs.Sink.splice ?seed obs in
    let emit config events =
      Array.iter (Obs.Sink.emit (Obs.Sink.next sp ~config)) events;
      Obs.Sink.advance sp
        (Array.fold_left (fun acc (ev : Obs.Event.t) -> max acc ev.t_us) 0 events + 1)
    in
    emit
      (Printf.sprintf "x11 par_alloc shards=%d" alloc_cfg.Parallel.Sharded.a_shards)
      a.trace;
    emit
      (Printf.sprintf "x11 par_paging shards=%d" paging_cfg.Parallel.Sharded.p_shards)
      p.trace;
    emit "x11 par_alloc supervision" a.supervision;
    emit "x11 par_paging supervision" p.supervision;
    true
  | _ -> false
