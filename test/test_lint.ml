(* Tests for the correctness tooling: the dsas_lint static pass (rules,
   pragma allowlisting, boundary exemption, JSON shape) and the trace
   invariant checker behind `dsas_sim check`. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- linter: one snippet per rule, positive and negative --- *)

let lint ?(file = "lib/fake/module.ml") src = Lint.Engine.lint_source ~file src

let codes ds = List.map (fun (d : Lint.Diagnostic.t) -> Lint.Diagnostic.code_id d.code) ds

let check_codes name expected src =
  Alcotest.(check (list string)) name expected (codes (lint src))

let test_l1_nondeterminism () =
  check_codes "global Random" [ "L1" ] "let x = Random.int 5\n";
  check_codes "self_init" [ "L1" ] "let () = Random.self_init ()\n";
  check_codes "wall clock" [ "L1" ] "let t = Unix.gettimeofday ()\n";
  check_codes "process clock" [ "L1" ] "let t = Sys.time ()\n";
  check_codes "seeded state is fine" []
    "let x st = Random.State.int st 5\n";
  check_codes "own rng is fine" [] "let x rng = Sim.Rng.int rng 5\n"

let test_l2_obj_magic () =
  check_codes "Obj.magic" [ "L2" ] "let y : int = Obj.magic \"3\"\n";
  check_codes "Obj.repr untouched" [] "let y = Obj.repr 3\n"

let test_l3_hash_order () =
  check_codes "iter" [ "L3" ] "let f t = Hashtbl.iter (fun _ _ -> ()) t\n";
  check_codes "fold" [ "L3" ] "let n t = Hashtbl.fold (fun _ _ a -> a + 1) t 0\n";
  check_codes "find_opt is fine" [] "let f t = Hashtbl.find_opt t 3\n"

let test_l4_partial () =
  check_codes "failwith" [ "L4" ] "let f () = failwith \"boom\"\n";
  check_codes "List.hd" [ "L4" ] "let f l = List.hd l\n";
  check_codes "List.tl" [ "L4" ] "let f l = List.tl l\n";
  check_codes "Option.get" [ "L4" ] "let f o = Option.get o\n";
  check_codes "match is fine" []
    "let f l = match l with x :: _ -> x | [] -> 0\n";
  check_codes "invalid_arg is fine" [ ] "let f () = invalid_arg \"no\"\n"

let test_l4_boundary_exempt () =
  let src = "let f () = failwith \"experiment driver may crash\"\n" in
  check_int "library file flagged" 1 (List.length (lint src));
  check_int "experiments exempt" 0
    (List.length (lint ~file:"lib/experiments/x9.ml" src));
  check_int "bin exempt" 0 (List.length (lint ~file:"bin/tool.ml" src));
  check_int "test exempt" 0 (List.length (lint ~file:"test/test_x.ml" src))

let test_l6_ignored_result () =
  check_codes "ignored application" [ "L6" ]
    "let f t = ignore (Hashtbl.find_opt t 3)\n";
  check_codes "qualified ignore" [ "L6" ]
    "let f t = Stdlib.ignore (Hashtbl.find_opt t 3)\n";
  check_codes "typed discard is fine" []
    "let f t = let (_ : int option) = Hashtbl.find_opt t 3 in ()\n";
  check_codes "ignoring a plain value is fine" [] "let f x = ignore x\n"

let test_l6_boundary_exempt () =
  let src = "let f g x = ignore (g x)\n" in
  check_int "library file flagged" 1 (List.length (lint src));
  check_int "experiments exempt" 0
    (List.length (lint ~file:"lib/experiments/x9.ml" src));
  check_int "bin exempt" 0 (List.length (lint ~file:"bin/tool.ml" src))

let test_l5_float_equality () =
  check_codes "literal" [ "L5" ] "let b x = x = 1.0\n";
  check_codes "float expression" [ "L5" ] "let b x y z = x +. y = z\n";
  check_codes "diseq" [ "L5" ] "let b x = x <> 0.5\n";
  check_codes "int equality is fine" [] "let b x = x = 1\n";
  check_codes "ordering is fine" [] "let b x = x > 1.0\n"

let test_l7_rng_order () =
  check_codes "list literal" [ "L7" ]
    "let f rng = [ Sim.Rng.int rng 3; Sim.Rng.int rng 4 ]\n";
  check_codes "one finding per list" [ "L7" ]
    "let f rng = [ g rng; h rng; k rng ]\n";
  check_codes "tuple" [ "L7" ] "let f rng = (g rng, 1, h rng)\n";
  check_codes "record" [ "L7" ] "let f rng = { a = g rng; b = h (k rng) }\n";
  check_codes "application" [ "L7" ] "let f rng = combine (g rng) (h rng)\n";
  check_codes "labelled arguments" [ "L7" ]
    "let f rng = make ~a:(g rng) ~b:(Sim.Rng.split rng)\n";
  Alcotest.(check (list string))
    "experiments not exempt" [ "L7" ]
    (codes (lint ~file:"lib/experiments/c3.ml" "let f rng = [ g rng; h rng ]\n"));
  check_codes "let-sequenced draws are fine" []
    "let f rng = let a = g rng in let b = h rng in [ a; b ]\n";
  check_codes "one draw is fine" [] "let f rng = [ g rng; 3; h x ]\n";
  check_codes "closures draw nothing when built" []
    "let mixes = [ (fun rng -> g rng); (fun rng -> h rng) ]\n";
  check_codes "a draw feeding a draw is ordered" []
    "let f rng = Sim.Rng.int rng (Sim.Rng.int rng 5 + 1)\n";
  check_codes "cons of a non-literal pair" [] "let f p = (::) p\n"

(* --- pragmas --- *)

let test_pragma_suppression () =
  check_codes "same line" []
    "let f () = failwith \"x\" (* lint: allow L4 — boundary crash documented *)\n";
  check_codes "line above" []
    "(* lint: allow L4 — boundary crash documented *)\nlet f () = failwith \"x\"\n";
  check_codes "allow-file covers later lines" []
    "(* lint: allow-file L3 — all folds here are order-independent *)\n\
     let n t = Hashtbl.fold (fun _ _ a -> a + 1) t 0\n";
  check_codes "wrong rule does not suppress" [ "pragma"; "L4" ]
    "(* lint: allow L3 — wrong rule *)\nlet f () = failwith \"x\"\n"

let test_pragma_hygiene () =
  check_codes "unused pragma flagged" [ "pragma" ]
    "(* lint: allow L4 — nothing here to suppress *)\nlet x = 1\n";
  check_codes "missing reason flagged" [ "pragma"; "L4" ]
    "let f () = failwith \"x\" (* lint: allow L4 *)\n";
  check_codes "unknown rule flagged" [ "pragma" ]
    "(* lint: allow L9 — no such rule *)\nlet x = 1\n";
  (match lint "(* lint: allow L9 — no such rule *)\nlet x = 1\n" with
   | [ d ] ->
     Alcotest.(check string) "message names the rules up to L7"
       "lint pragma names unknown rule \"L9\" (L1..L7)" d.message
   | ds -> Alcotest.failf "expected one pragma diagnostic, got %d" (List.length ds));
  check_codes "unknown keyword flagged" [ "pragma" ]
    "(* lint: permit L4 — wrong verb *)\nlet x = 1\n";
  check_codes "marker in string ignored" []
    "let s = \"lint: allow L4 — not a pragma\"\n"

let test_parse_error_single_diagnostic () =
  match lint "let let = in\n" with
  | [ d ] ->
    Alcotest.(check string) "code" "parse" (Lint.Diagnostic.code_id d.code)
  | ds -> Alcotest.failf "expected one parse diagnostic, got %d" (List.length ds)

let test_rule_ids_roundtrip () =
  List.iter
    (fun r ->
      check_bool "by id" true (Lint.Rule.of_string (Lint.Rule.id r) = Some r);
      check_bool "by slug" true (Lint.Rule.of_string (Lint.Rule.slug r) = Some r))
    Lint.Rule.all;
  check_bool "unknown" true (Lint.Rule.of_string "L8" = None)

let test_diagnostic_json_shape () =
  match lint "let f l = List.hd l\n" with
  | [ d ] ->
    let js = Obs.Json.to_string (Lint.Diagnostic.to_json d) in
    let has needle =
      let nl = String.length needle and jl = String.length js in
      let rec go i = i + nl <= jl && (String.sub js i nl = needle || go (i + 1)) in
      go 0
    in
    check_bool "file field" true (has "\"file\":");
    check_bool "line field" true (has "\"line\":1");
    check_bool "rule field" true (has "\"rule\":\"L4\"");
    check_bool "slug name" true (has "\"name\":\"partial-function\"")
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

(* dune runtest runs us in _build/default/test; a direct `dune exec`
   runs from the project root.  Resolve paths for both. *)
let resolve candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "none of %s exists" (String.concat ", " candidates)

(* The tree itself must be clean: the repo's own sources are the
   linter's largest negative test. *)
let test_lib_tree_clean () =
  let root = resolve [ "../lib"; "lib" ] in
  let files, diagnostics = Lint.Engine.lint_paths [ root ] in
  check_bool "saw many files" true (List.length files > 50);
  List.iter (fun d -> print_endline (Lint.Diagnostic.to_string d)) diagnostics;
  check_int "no violations in lib/" 0 (List.length diagnostics)

(* --- trace checker: synthetic streams, one per invariant class --- *)

let ev t_us kind = Obs.Event.make ~t_us kind

let counts_ids (r : Obs.Check.report) =
  List.map (fun (i, _) -> Obs.Check.invariant_id i) r.Obs.Check.counts

let check_ids name expected events =
  Alcotest.(check (list string)) name expected
    (counts_ids (Obs.Check.check_events events))

let test_check_accepts_clean_stream () =
  let r =
    Obs.Check.check_events
      [
        ev 0 (Obs.Event.Fault { page = 1 });
        ev 0 (Obs.Event.Cold_fault { page = 1 });
        ev 5 (Obs.Event.Fault { page = 2 });
        ev 5 (Obs.Event.Cold_fault { page = 2 });
        ev 9 (Obs.Event.Eviction { page = 1 });
        ev 0 (Obs.Event.Run_start { run = 0; seed = None; config = None });
        ev 3 (Obs.Event.Alloc { addr = 0; size = 8 });
        ev 7 (Obs.Event.Free { addr = 0; size = 8 });
      ]
  in
  check_bool "ok" true (Obs.Check.ok r);
  check_int "events" 8 r.Obs.Check.events;
  check_int "segments" 2 r.Obs.Check.runs

let test_check_clock () =
  check_ids "backwards clock" [ "clock" ]
    [ ev 10 (Obs.Event.Fault { page = 1 }); ev 4 (Obs.Event.Fault { page = 2 }) ]

let test_check_io_pair () =
  let io = Obs.Event.Demand in
  check_ids "done without start" [ "io-pair"; "queue-depth" ]
    [ ev 1 (Obs.Event.Io_done { req = 3; page = 1; io }) ];
  check_ids "dangling start" [ "io-pair" ]
    [ ev 1 (Obs.Event.Io_start { req = 3; page = 1; io }) ];
  check_ids "double start" [ "io-pair" ]
    [
      ev 1 (Obs.Event.Io_start { req = 3; page = 1; io });
      ev 2 (Obs.Event.Io_start { req = 3; page = 1; io });
      ev 3 (Obs.Event.Io_done { req = 3; page = 1; io });
    ];
  check_ids "page mismatch" [ "io-pair" ]
    [
      ev 1 (Obs.Event.Io_start { req = 3; page = 1; io });
      ev 2 (Obs.Event.Io_done { req = 3; page = 2; io });
    ];
  check_ids "retry not in flight" [ "io-pair" ]
    [ ev 1 (Obs.Event.Io_retry { req = 3; attempt = 1 }) ]

let test_check_frames () =
  check_ids "fault of resident page" [ "frames" ]
    [ ev 1 (Obs.Event.Fault { page = 1 }); ev 2 (Obs.Event.Fault { page = 1 }) ];
  check_ids "eviction of absent page" [ "frames" ]
    [ ev 1 (Obs.Event.Eviction { page = 1 }) ];
  check_ids "cold fault never fetched" [ "frames" ]
    [ ev 1 (Obs.Event.Writeback { page = 1 }); ev 1 (Obs.Event.Cold_fault { page = 1 }) ]

let test_check_heap () =
  check_ids "free exceeds alloc" [ "heap" ]
    [
      ev 1 (Obs.Event.Alloc { addr = 0; size = 8 });
      ev 2 (Obs.Event.Free { addr = 0; size = 9 });
    ]

let test_check_vocab () =
  check_ids "paging and allocator kinds mixed" [ "vocab" ]
    [
      ev 1 (Obs.Event.Fault { page = 1 });
      ev 2 (Obs.Event.Alloc { addr = 0; size = 8 });
    ]

let test_check_schema_run_ids () =
  check_ids "run ids must increase" [ "schema" ]
    [
      ev 0 (Obs.Event.Run_start { run = 1; seed = None; config = None });
      ev 0 (Obs.Event.Run_start { run = 1; seed = None; config = None });
    ]

let test_check_segments_reset_state () =
  (* The same page faulting in two different runs is fine; without the
     boundary it would be a frames violation. *)
  check_ids "boundary resets residency" []
    [
      ev 0 (Obs.Event.Run_start { run = 0; seed = None; config = None });
      ev 1 (Obs.Event.Fault { page = 1 });
      ev 0 (Obs.Event.Run_start { run = 1; seed = None; config = None });
      ev 1 (Obs.Event.Fault { page = 1 });
    ]

(* --- the corrupted fixture exercises every invariant class --- *)

let test_corrupt_fixture () =
  let fixture =
    resolve [ "fixtures/corrupt_trace.jsonl"; "test/fixtures/corrupt_trace.jsonl" ]
  in
  match Readers.check_file fixture with
  | Error msg -> Alcotest.failf "fixture unreadable: %s" msg
  | Ok r ->
    check_bool "not ok" false (Obs.Check.ok r);
    let ids = counts_ids r in
    List.iter
      (fun i ->
        let id = Obs.Check.invariant_id i in
        check_bool (id ^ " violated") true (List.mem id ids))
      Obs.Check.all_invariants

(* --- real engines and experiments produce traces the checker accepts --- *)

let collect_events f =
  let acc = ref [] in
  f (Obs.Sink.collect (fun e -> acc := e :: !acc));
  List.rev !acc

let check_experiment name f =
  let events = collect_events f in
  let r = Obs.Check.check_events events in
  check_bool "produced events" true (List.length events > 0);
  if not (Obs.Check.ok r) then begin
    Obs.Check.print r;
    Alcotest.failf "%s trace violates invariants" name
  end

let test_experiment_traces_pass () =
  check_experiment "fig3" (fun obs -> ignore (Experiments.Fig3.measure ~quick:true ~obs ()));
  check_experiment "c7" (fun obs ->
      ignore (Experiments.C7_multiprog.measure ~quick:true ~obs ()));
  check_experiment "x1" (fun obs ->
      ignore (Experiments.X1_compaction.measure ~quick:true ~obs ()));
  check_experiment "x8_devices" (fun obs ->
      ignore (Experiments.X8_devices.measure_spacetime ~quick:true ~obs ()));
  check_experiment "x9_resilience" (fun obs ->
      ignore (Experiments.X9_resilience.measure ~quick:true ~obs ()))

let fault_sim_traces_pass =
  QCheck.Test.make ~name:"fault-sim traces satisfy every invariant" ~count:60
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 12)))
    (fun (frames, refs) ->
      let trace = Array.of_list refs in
      let events =
        collect_events (fun obs ->
            ignore
              (Paging.Fault_sim.run ~obs ~frames ~policy:(Paging.Replacement.lru ())
                 trace))
      in
      Obs.Check.ok (Obs.Check.check_events events))

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "L1 nondeterminism" `Quick test_l1_nondeterminism;
          Alcotest.test_case "L2 Obj.magic" `Quick test_l2_obj_magic;
          Alcotest.test_case "L3 hash order" `Quick test_l3_hash_order;
          Alcotest.test_case "L4 partial functions" `Quick test_l4_partial;
          Alcotest.test_case "L4 boundary exemption" `Quick test_l4_boundary_exempt;
          Alcotest.test_case "L5 float equality" `Quick test_l5_float_equality;
          Alcotest.test_case "L6 ignored result" `Quick test_l6_ignored_result;
          Alcotest.test_case "L6 boundary exemption" `Quick test_l6_boundary_exempt;
          Alcotest.test_case "L7 rng evaluation order" `Quick test_l7_rng_order;
          Alcotest.test_case "rule ids roundtrip" `Quick test_rule_ids_roundtrip;
        ] );
      ( "pragmas",
        [
          Alcotest.test_case "suppression" `Quick test_pragma_suppression;
          Alcotest.test_case "hygiene" `Quick test_pragma_hygiene;
          Alcotest.test_case "parse error" `Quick test_parse_error_single_diagnostic;
          Alcotest.test_case "json shape" `Quick test_diagnostic_json_shape;
          Alcotest.test_case "lib tree clean" `Quick test_lib_tree_clean;
        ] );
      ( "trace-check",
        [
          Alcotest.test_case "clean stream" `Quick test_check_accepts_clean_stream;
          Alcotest.test_case "clock" `Quick test_check_clock;
          Alcotest.test_case "io pairing" `Quick test_check_io_pair;
          Alcotest.test_case "frames" `Quick test_check_frames;
          Alcotest.test_case "heap" `Quick test_check_heap;
          Alcotest.test_case "vocab" `Quick test_check_vocab;
          Alcotest.test_case "run ids" `Quick test_check_schema_run_ids;
          Alcotest.test_case "segment reset" `Quick test_check_segments_reset_state;
          Alcotest.test_case "corrupt fixture" `Quick test_corrupt_fixture;
        ] );
      ( "real-traces",
        [
          Alcotest.test_case "experiments pass" `Quick test_experiment_traces_pass;
          QCheck_alcotest.to_alcotest fault_sim_traces_pass;
        ] );
    ]
