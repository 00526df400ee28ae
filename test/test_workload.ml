(* Tests for the workload library: traces, allocation streams, jobs. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Trace --- *)

let test_sequential () =
  let t = Workload.Trace.sequential ~length:7 ~extent:3 in
  Alcotest.(check (array int)) "wraps" [| 0; 1; 2; 0; 1; 2; 0 |] t

let test_uniform_bounds () =
  let rng = Sim.Rng.create 1 in
  let t = Workload.Trace.uniform rng ~length:1000 ~extent:17 in
  Array.iter (fun a -> check_bool "in range" true (a >= 0 && a < 17)) t;
  check_bool "uses several addresses" true (Workload.Trace.extent t > 10)

let test_loop () =
  let t = Workload.Trace.loop ~length:10 ~extent:100 ~working_set:4 in
  Alcotest.(check (array int)) "loops" [| 0; 1; 2; 3; 0; 1; 2; 3; 0; 1 |] t

let test_zipf_skewed () =
  let rng = Sim.Rng.create 5 in
  let t = Workload.Trace.zipf rng ~length:10_000 ~extent:100 ~skew:1.2 in
  Array.iter (fun a -> check_bool "in range" true (a >= 0 && a < 100)) t;
  let count0 = Array.fold_left (fun acc a -> if a = 0 then acc + 1 else acc) 0 t in
  let count50 = Array.fold_left (fun acc a -> if a = 50 then acc + 1 else acc) 0 t in
  check_bool "address 0 much hotter than 50" true (count0 > 10 * max 1 count50)

let test_working_set_phases_locality () =
  let rng = Sim.Rng.create 8 in
  let t =
    Workload.Trace.working_set_phases rng ~length:2000 ~extent:1000 ~set_size:10
      ~phase_length:500 ~locality:1.0
  in
  (* With locality 1.0, each 500-reference phase touches at most 10 pages. *)
  let distinct lo hi =
    let seen = Hashtbl.create 16 in
    for i = lo to hi do
      Hashtbl.replace seen t.(i) ()
    done;
    Hashtbl.length seen
  in
  check_bool "phase 1 small" true (distinct 0 499 <= 10);
  check_bool "phase 2 small" true (distinct 500 999 <= 10)

let test_matrix_traversals () =
  let row = Workload.Trace.matrix_row_major ~rows:3 ~cols:4 ~base:100 in
  let col = Workload.Trace.matrix_col_major ~rows:3 ~cols:4 ~base:100 in
  check_int "row first" 100 row.(0);
  check_int "row second is adjacent" 101 row.(1);
  check_int "col first" 100 col.(0);
  check_int "col second jumps a row" 104 col.(1);
  let sorted a = let c = Array.copy a in Array.sort compare c; c in
  Alcotest.(check (array int)) "same footprint" (sorted row) (sorted col)

let test_to_pages () =
  let t = [| 0; 511; 512; 1024; 1535 |] in
  Alcotest.(check (array int)) "page numbers" [| 0; 0; 1; 2; 2 |]
    (Workload.Trace.to_pages ~page_size:512 t)

let test_belady_trace () =
  check_int "length 12" 12 (Array.length Workload.Trace.belady_anomaly_trace)

(* --- Alloc_stream --- *)

let events_are_well_formed events =
  let live = Hashtbl.create 16 in
  let ok = ref true in
  List.iter
    (function
      | Workload.Alloc_stream.Alloc { id; size } ->
        if size < 1 || Hashtbl.mem live id then ok := false;
        Hashtbl.replace live id ()
      | Workload.Alloc_stream.Free { id } ->
        if not (Hashtbl.mem live id) then ok := false;
        Hashtbl.remove live id)
    events;
  !ok

let test_live_stream_reaches_target () =
  let rng = Sim.Rng.create 22 in
  let events =
    Workload.Alloc_stream.live_stream rng ~steps:2000
      ~size:(Workload.Alloc_stream.Exact 8) ~target_live:50
  in
  check_bool "well formed" true (events_are_well_formed events);
  let live =
    List.fold_left
      (fun n -> function
        | Workload.Alloc_stream.Alloc _ -> n + 1
        | Workload.Alloc_stream.Free _ -> n - 1)
      0 events
  in
  check_bool "ends near target" true (live >= 40 && live <= 60)

let test_size_distributions () =
  let rng = Sim.Rng.create 23 in
  check_int "exact" 7 (Workload.Alloc_stream.sample_size rng (Exact 7));
  for _ = 1 to 100 do
    let v = Workload.Alloc_stream.sample_size rng (Uniform (3, 9)) in
    check_bool "uniform bounds" true (v >= 3 && v <= 9);
    let g = Workload.Alloc_stream.sample_size rng (Geometric { mean = 16.; min_size = 2 }) in
    check_bool "geometric min" true (g >= 2);
    let b =
      Workload.Alloc_stream.sample_size rng
        (Bimodal { small = 8; large = 512; large_fraction = 0.1 })
    in
    check_bool "bimodal values" true (b = 8 || b = 512)
  done

(* --- Job --- *)

let test_job_mix () =
  let rng = Sim.Rng.create 31 in
  let jobs =
    Workload.Job.mix rng ~jobs:3 ~refs_per_job:400 ~pages_per_job:32 ~locality:0.9
      ~compute_us_per_ref:5
  in
  check_int "three jobs" 3 (List.length jobs);
  List.iter
    (fun j ->
      check_int "trace length" 400 (Array.length j.Workload.Job.refs);
      check_bool "touches pages" true (Workload.Job.pages_touched j > 1);
      Array.iter
        (fun p -> check_bool "page in range" true (p >= 0 && p < 32))
        j.Workload.Job.refs)
    jobs

(* --- Trace_io --- *)

let temp_file () = Filename.temp_file "dsas_test" ".trace"

let test_trace_roundtrip () =
  let rng = Sim.Rng.create 41 in
  let trace = Workload.Trace.uniform rng ~length:500 ~extent:1000 in
  let file = temp_file () in
  Workload.Trace_io.save_trace file trace;
  let back = Result.get_ok (Workload.Trace_io.load_trace file) in
  Sys.remove file;
  Alcotest.(check (array int)) "roundtrip" trace back

let test_events_roundtrip () =
  let rng = Sim.Rng.create 43 in
  let events =
    Workload.Alloc_stream.live_stream rng ~steps:400
      ~size:(Workload.Alloc_stream.Uniform (1, 99)) ~target_live:15
  in
  let file = temp_file () in
  Workload.Trace_io.save_events file events;
  let back = Result.get_ok (Workload.Trace_io.load_events file) in
  Sys.remove file;
  check_bool "roundtrip" true (events = back)

let test_load_skips_comments_and_blanks () =
  let file = temp_file () in
  let oc = open_out file in
  output_string oc "# header\n42\n\n  7  \n# tail\n";
  close_out oc;
  let trace = Result.get_ok (Workload.Trace_io.load_trace file) in
  Sys.remove file;
  Alcotest.(check (array int)) "parsed" [| 42; 7 |] trace

(* Traces edited on (or exported from) DOS-style tools arrive with
   CRLF endings and often a blank line or two at the end. *)
let test_load_tolerates_crlf_and_trailing_blanks () =
  let file = temp_file () in
  let oc = open_out_bin file in
  output_string oc "# dos header\r\n42\r\n  7 \r\n\r\n\n";
  close_out oc;
  let trace = Result.get_ok (Workload.Trace_io.load_trace file) in
  Sys.remove file;
  Alcotest.(check (array int)) "parsed" [| 42; 7 |] trace

let test_load_events_tolerates_crlf_and_trailing_blanks () =
  let file = temp_file () in
  let oc = open_out_bin file in
  output_string oc "a 1 10\r\nf 1\r\n\r\n\n";
  close_out oc;
  let events = Result.get_ok (Workload.Trace_io.load_events file) in
  Sys.remove file;
  check_bool "parsed" true
    (events
    = [ Workload.Alloc_stream.Alloc { id = 1; size = 10 }; Workload.Alloc_stream.Free { id = 1 } ])

let test_load_rejects_garbage_with_line_number () =
  let file = temp_file () in
  let oc = open_out file in
  output_string oc "1\n2\nnot-a-number\n";
  close_out oc;
  let result =
    match Workload.Trace_io.load_trace file with
    | Ok _ -> "no error"
    | Error msg -> msg
  in
  Sys.remove file;
  check_bool "names line 3" true
    (String.length result > 0
    && (let rec find i =
          i + 6 <= String.length result
          && (String.sub result i 6 = "line 3" || find (i + 1))
        in
        find 0));
  check_bool "a missing file is an Error" true
    (Result.is_error (Workload.Trace_io.load_trace "/no/such/file.trace"))

let test_load_events_skips_comments_and_blanks () =
  let file = temp_file () in
  let oc = open_out file in
  output_string oc "# alloc stream\na 1 10\n\n  f 1  \n# tail\n";
  close_out oc;
  let events = Result.get_ok (Workload.Trace_io.load_events file) in
  Sys.remove file;
  check_bool "parsed" true
    (events
    = [ Workload.Alloc_stream.Alloc { id = 1; size = 10 }; Workload.Alloc_stream.Free { id = 1 } ])

let names_line msg n =
  let needle = Printf.sprintf "line %d" n in
  let nl = String.length needle in
  let rec find i =
    i + nl <= String.length msg && (String.sub msg i nl = needle || find (i + 1))
  in
  find 0

(* A negative address names no page: rejected like any unparsable line. *)
let test_load_rejects_negative_address () =
  let file = temp_file () in
  let oc = open_out file in
  output_string oc "3\n1\n-4\n";
  close_out oc;
  let result =
    match Workload.Trace_io.load_trace file with
    | Ok _ -> "no error"
    | Error msg -> msg
  in
  Sys.remove file;
  check_bool "names line 3" true (names_line result 3)

let test_load_events_rejects_garbage_with_line_number () =
  let failure_of text =
    let file = temp_file () in
    let oc = open_out file in
    output_string oc text;
    close_out oc;
    let result =
      match Workload.Trace_io.load_events file with
      | Ok _ -> "no error"
      | Error msg -> msg
    in
    Sys.remove file;
    result
  in
  check_bool "unknown verb, line 2" true (names_line (failure_of "a 1 10\nx 2 5\n") 2);
  check_bool "truncated alloc, line 1" true (names_line (failure_of "a 1\n") 1);
  check_bool "non-numeric size, line 3" true
    (names_line (failure_of "a 1 10\nf 1\na 2 big\n") 3)

let events_io_roundtrip_property =
  QCheck.Test.make ~name:"events file roundtrip for arbitrary streams" ~count:50
    QCheck.(
      list
        (map
           (fun (alloc, id, size) ->
             if alloc then Workload.Alloc_stream.Alloc { id; size = 1 + size }
             else Workload.Alloc_stream.Free { id })
           (triple bool (int_bound 10_000) (int_bound 5_000))))
    (fun events ->
      let file = Filename.temp_file "dsas_prop" ".events" in
      Workload.Trace_io.save_events file events;
      let back = Workload.Trace_io.load_events file in
      Sys.remove file;
      back = Ok events)

let trace_io_roundtrip_property =
  QCheck.Test.make ~name:"trace file roundtrip for arbitrary traces" ~count:50
    QCheck.(list (int_bound 1_000_000))
    (fun addrs ->
      let trace = Array.of_list addrs in
      let file = Filename.temp_file "dsas_prop" ".trace" in
      Workload.Trace_io.save_trace file trace;
      let back = Workload.Trace_io.load_trace file in
      Sys.remove file;
      back = Ok trace)

(* Damage to a saved trace or allocation stream reads as an [Error] or
   as another well-formed file, never as an exception. *)
let readers_total_property =
  let saved save value =
    let file = temp_file () in
    save file value;
    let ic = open_in_bin file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove file;
    text
  in
  let artifacts =
    lazy
      (let rng = Sim.Rng.create 47 in
       [|
         ( saved Workload.Trace_io.save_trace
             (Workload.Trace.uniform rng ~length:64 ~extent:1000),
           fun file -> ignore (Workload.Trace_io.load_trace file) );
         ( saved Workload.Trace_io.save_events
             (Workload.Alloc_stream.live_stream rng ~steps:48
                ~size:(Workload.Alloc_stream.Uniform (1, 99)) ~target_live:5),
           fun file -> ignore (Workload.Trace_io.load_events file) );
       |])
  in
  QCheck.Test.make ~name:"no single-byte mutation makes a reader raise" ~count:1000
    QCheck.(triple bool (int_bound 100_000) (int_bound 255))
    (fun (events, at, byte) ->
      let text, load = (Lazy.force artifacts).(if events then 1 else 0) in
      let b = Bytes.of_string text in
      Bytes.set b (at mod Bytes.length b) (Char.chr byte);
      let file = temp_file () in
      let oc = open_out_bin file in
      output_bytes oc b;
      close_out oc;
      let raised = match load file with () -> None | exception e -> Some e in
      Sys.remove file;
      match raised with
      | None -> true
      | Some e -> QCheck.Test.fail_reportf "%s" (Printexc.to_string e))

(* [replay] against a stub allocator and a list model.  The stream
   gives every [Alloc] a fresh id and names, in its [Free]s, live,
   refused, already-freed and never-seen ids; the stub grants the
   allocations the stream marks and hands out tokens 0, 1, 2, ...  Only
   a granted and not yet freed id's token may reach [free], once, in
   stream order, and the tally must count what the model counts. *)
let replay_property =
  QCheck.Test.make ~name:"replay frees exactly the granted ids, once, in order" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 0 150)
        (quad (int_bound 7) (int_bound 1000) (int_bound 63) bool))
    (fun ops ->
      let open Workload.Alloc_stream in
      let next_id = ref 0 and live = ref [] and refused = ref [] and freed = ref [] in
      let grants = Hashtbl.create 64 in
      let pick pool x = List.nth pool (x mod List.length pool) in
      let event (kind, x, size, grant) =
        match kind with
        | 0 | 1 | 2 ->
          let id = !next_id in
          incr next_id;
          Hashtbl.replace grants id grant;
          if grant then live := id :: !live else refused := id :: !refused;
          Alloc { id; size = 1 + size }
        | (3 | 4) when !live <> [] ->
          let id = pick !live x in
          live := List.filter (( <> ) id) !live;
          freed := id :: !freed;
          Free { id }
        | 5 when !refused <> [] -> Free { id = pick !refused x }
        | 6 when !freed <> [] -> Free { id = pick !freed x }
        | _ -> Free { id = -1 - x }
      in
      let events = List.map event ops in
      let calls = ref [] and tokens = ref 0 and frees = ref [] in
      let got =
        replay events
          ~alloc:(fun ~id size ->
            calls := (id, size) :: !calls;
            if Hashtbl.find grants id then begin
              incr tokens;
              Some (!tokens - 1)
            end
            else None)
          ~free:(fun token -> frees := token :: !frees)
      in
      (* The model: (id, (token, size)) for each granted id still live. *)
      let _, model_frees, want =
        List.fold_left
          (fun (live, frees, t) -> function
            | Alloc { id; size } ->
              if Hashtbl.find grants id then
                ( (id, (t.placed, size)) :: live,
                  frees,
                  { t with placed = t.placed + 1; live_requested = t.live_requested + size } )
              else (live, frees, { t with unplaced = t.unplaced + 1 })
            | Free { id } -> (
              match List.assoc_opt id live with
              | Some (token, size) ->
                ( List.remove_assoc id live,
                  token :: frees,
                  { t with live_requested = t.live_requested - size } )
              | None -> (live, frees, t)))
          ([], [], { placed = 0; unplaced = 0; live_requested = 0 })
          events
      in
      let allocs =
        List.filter_map (function Alloc { id; size } -> Some (id, size) | Free _ -> None) events
      in
      if List.rev !calls <> allocs then QCheck.Test.fail_report "alloc saw other requests";
      if List.rev !frees <> List.rev model_frees then
        QCheck.Test.fail_reportf "freed tokens [%s], model [%s]"
          (String.concat "; " (List.rev_map string_of_int !frees))
          (String.concat "; " (List.rev_map string_of_int model_frees));
      got = want)

let () =
  Alcotest.run "workload"
    [
      ( "trace",
        [
          Alcotest.test_case "sequential" `Quick test_sequential;
          Alcotest.test_case "uniform" `Quick test_uniform_bounds;
          Alcotest.test_case "loop" `Quick test_loop;
          Alcotest.test_case "zipf" `Quick test_zipf_skewed;
          Alcotest.test_case "working set phases" `Quick test_working_set_phases_locality;
          Alcotest.test_case "matrix" `Quick test_matrix_traversals;
          Alcotest.test_case "to_pages" `Quick test_to_pages;
          Alcotest.test_case "belady trace" `Quick test_belady_trace;
        ] );
      ( "alloc_stream",
        [
          Alcotest.test_case "live stream" `Quick test_live_stream_reaches_target;
          Alcotest.test_case "size distributions" `Quick test_size_distributions;
          QCheck_alcotest.to_alcotest replay_property;
          QCheck_alcotest.to_alcotest trace_io_roundtrip_property;
        ] );
      ("job", [ Alcotest.test_case "mix" `Quick test_job_mix ]);
      ( "trace_io",
        [
          Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "events roundtrip" `Quick test_events_roundtrip;
          Alcotest.test_case "comments/blanks" `Quick test_load_skips_comments_and_blanks;
          Alcotest.test_case "crlf/trailing blanks" `Quick
            test_load_tolerates_crlf_and_trailing_blanks;
          Alcotest.test_case "events crlf/trailing blanks" `Quick
            test_load_events_tolerates_crlf_and_trailing_blanks;
          Alcotest.test_case "garbage rejected" `Quick test_load_rejects_garbage_with_line_number;
          Alcotest.test_case "negative address" `Quick test_load_rejects_negative_address;
          Alcotest.test_case "events comments/blanks" `Quick
            test_load_events_skips_comments_and_blanks;
          Alcotest.test_case "events garbage rejected" `Quick
            test_load_events_rejects_garbage_with_line_number;
          QCheck_alcotest.to_alcotest events_io_roundtrip_property;
          QCheck_alcotest.to_alcotest readers_total_property;
        ] );
    ]
