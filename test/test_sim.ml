(* Tests for the sim library: rng, clock, heap. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 42 and b = Sim.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
  check_bool "different streams" false (Sim.Rng.bits64 a = Sim.Rng.bits64 b)

let test_rng_split_independent () =
  let a = Sim.Rng.create 7 in
  let b = Sim.Rng.split a in
  check_bool "split differs" false (Sim.Rng.bits64 a = Sim.Rng.bits64 b)

let test_rng_int_in_bounds () =
  let rng = Sim.Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int_in rng 5 9 in
    check_bool "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_rng_shuffle_permutes () =
  let rng = Sim.Rng.create 9 in
  let a = Array.init 50 (fun i -> i) in
  Sim.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_exponential_mean () =
  let rng = Sim.Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.exponential rng 10.
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean near 10" true (mean > 9. && mean < 11.)

let test_rng_geometric_mean () =
  let rng = Sim.Rng.create 13 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Sim.Rng.geometric rng 0.25
  done;
  (* mean (1-p)/p = 3 *)
  let mean = float_of_int !sum /. float_of_int n in
  check_bool "mean near 3" true (mean > 2.8 && mean < 3.2)

(* The generator against its boxed reference (Fault_path_reference):
   10^5 draws of every function give the same values, floats bit for
   bit, and a saved state resumes the same stream on either side. *)
module Ref_rng = Fault_path_reference.Rng

let test_rng_matches_reference () =
  let n = 100_000 in
  let same name ~seed draw reference_draw =
    let t = Sim.Rng.create seed and r = Ref_rng.create seed in
    for i = 1 to n do
      let a = draw t and b = reference_draw r in
      if a <> b then Alcotest.failf "%s, draw %d: %Ld against %Ld" name i a b
    done;
    Alcotest.(check int64) (name ^ ": state after") (Ref_rng.state r) (Sim.Rng.state t)
  in
  let of_int x = Int64.of_int x and of_float x = Int64.bits_of_float x in
  let a = Array.init 37 (fun i -> i * i) in
  same "bits64" ~seed:1 Sim.Rng.bits64 Ref_rng.bits64;
  same "int" ~seed:2 (fun t -> of_int (Sim.Rng.int t 1_000_003)) (fun r -> of_int (Ref_rng.int r 1_000_003));
  same "int_in" ~seed:3 (fun t -> of_int (Sim.Rng.int_in t (-50) 50)) (fun r -> of_int (Ref_rng.int_in r (-50) 50));
  same "bool" ~seed:4 (fun t -> of_int (Bool.to_int (Sim.Rng.bool t))) (fun r -> of_int (Bool.to_int (Ref_rng.bool r)));
  same "float" ~seed:5 (fun t -> of_float (Sim.Rng.float t 3.5)) (fun r -> of_float (Ref_rng.float r 3.5));
  same "exponential" ~seed:6
    (fun t -> of_float (Sim.Rng.exponential t 10.))
    (fun r -> of_float (Ref_rng.exponential r 10.));
  same "geometric" ~seed:7 (fun t -> of_int (Sim.Rng.geometric t 0.25)) (fun r -> of_int (Ref_rng.geometric r 0.25));
  same "pick" ~seed:8 (fun t -> of_int (Sim.Rng.pick t a)) (fun r -> of_int (Ref_rng.pick r a));
  same "split" ~seed:9
    (fun t -> Sim.Rng.bits64 (Sim.Rng.split t))
    (fun r -> Ref_rng.bits64 (Ref_rng.split r));
  same "derive" ~seed:10
    (fun t -> Sim.Rng.bits64 (Sim.Rng.derive ~override:(Sim.Rng.int t 1000) 0xC3))
    (fun r -> Ref_rng.bits64 (Ref_rng.derive ~override:(Ref_rng.int r 1000) 0xC3));
  let t = Sim.Rng.create 11 and r = Ref_rng.create 11 in
  let b = Array.init 1000 Fun.id and c = Array.init 1000 Fun.id in
  for _ = 1 to 100 do
    Sim.Rng.shuffle t b;
    Ref_rng.shuffle r c
  done;
  Alcotest.(check (array int)) "shuffle" c b

let test_rng_state_round_trip () =
  let t = Sim.Rng.create 12 in
  for _ = 1 to 1000 do
    ignore (Sim.Rng.bits64 t)
  done;
  let saved = Sim.Rng.state t in
  let resumed = Sim.Rng.of_state saved and reference = Ref_rng.of_state saved in
  Alcotest.(check int64) "state of of_state" saved (Sim.Rng.state resumed);
  for _ = 1 to 1000 do
    let x = Sim.Rng.bits64 t in
    Alcotest.(check int64) "resumed" x (Sim.Rng.bits64 resumed);
    Alcotest.(check int64) "reference resumed" x (Ref_rng.bits64 reference)
  done;
  List.iter
    (fun s -> Alcotest.(check int64) "any state" s (Sim.Rng.state (Sim.Rng.of_state s)))
    [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0x9E3779B97F4A7C15L ]

(* No draw that returns an int allocates: [Gc.minor_words] (read, never
   set) does not move over 10^5 draws of each.  [bits64] and the float
   draws return boxed values, so they are not here. *)
let test_rng_draws_allocate_nothing () =
  let t = Sim.Rng.create 13 and a = Array.init 10 Fun.id in
  List.iter
    (fun (name, draw) ->
      let before = Gc.minor_words () in
      for _ = 1 to 100_000 do
        draw ()
      done;
      let words = Gc.minor_words () -. before in
      check_bool (Printf.sprintf "%s: %.0f words" name words) true (words = 0.))
    [
      ("int", fun () -> ignore (Sim.Rng.int t 1000));
      ("int_in", fun () -> ignore (Sim.Rng.int_in t 5 9));
      ("bool", fun () -> ignore (Sim.Rng.bool t));
      ("geometric", fun () -> ignore (Sim.Rng.geometric t 0.3));
      ("pick", fun () -> ignore (Sim.Rng.pick t a));
      ("shuffle", fun () -> Sim.Rng.shuffle t a);
    ]

(* --- Clock --- *)

let test_clock_advances () =
  let c = Sim.Clock.create () in
  check_int "starts at 0" 0 (Sim.Clock.now c);
  Sim.Clock.advance c 5;
  Sim.Clock.advance c 7;
  check_int "5+7" 12 (Sim.Clock.now c);
  Sim.Clock.advance_to c 10;
  check_int "advance_to past time is no-op" 12 (Sim.Clock.now c);
  Sim.Clock.advance_to c 20;
  check_int "advance_to future" 20 (Sim.Clock.now c)

(* --- Heap --- *)

let test_heap_sorts () =
  let h = Sim.Heap.create () in
  let input = [ 5; 3; 9; 1; 7; 3; 0; 12 ] in
  List.iter (fun k -> Sim.Heap.add h k k) input;
  let rec drain acc = match Sim.Heap.pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc) in
  Alcotest.(check (list int)) "sorted" (List.sort compare input) (drain [])

let test_heap_fifo_on_ties () =
  let h = Sim.Heap.create () in
  List.iteri (fun i () -> Sim.Heap.add h 1 i) [ (); (); (); () ];
  let rec drain acc = match Sim.Heap.pop h with None -> List.rev acc | Some (_, v) -> drain (v :: acc) in
  Alcotest.(check (list int)) "insertion order" [ 0; 1; 2; 3 ] (drain [])

let test_heap_empty () =
  let h : int Sim.Heap.t = Sim.Heap.create () in
  check_bool "empty" true (Sim.Heap.is_empty h);
  check_bool "pop none" true (Sim.Heap.pop h = None);
  check_bool "min none" true (Sim.Heap.min h = None);
  check_bool "min_key refused" true
    (match Sim.Heap.min_key h with _ -> false | exception Invalid_argument _ -> true)

let heap_property =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Sim.Heap.create () in
      List.iter (fun k -> Sim.Heap.add h k ()) keys;
      let rec drain prev =
        let peeked = if Sim.Heap.is_empty h then None else Some (Sim.Heap.min_key h) in
        match Sim.Heap.pop h with
        | None -> peeked = None
        | Some (k, ()) -> peeked = Some k && k >= prev && drain k
      in
      drain min_int)

(* Stronger than nondecreasing keys: among equal keys, values must come
   back in insertion order — the stability the device model's
   completion heap and the event queue both lean on. *)
let heap_fifo_property =
  QCheck.Test.make ~name:"heap is FIFO among equal keys" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Sim.Heap.create () in
      List.iteri (fun i k -> Sim.Heap.add h k i) keys;
      let rec drain acc =
        match Sim.Heap.pop h with None -> List.rev acc | Some kv -> drain (kv :: acc)
      in
      drain []
      = List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i k -> (k, i)) keys))

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "matches its boxed reference" `Quick test_rng_matches_reference;
          Alcotest.test_case "state round trip" `Quick test_rng_state_round_trip;
          Alcotest.test_case "int draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
        ] );
      ("clock", [ Alcotest.test_case "advances" `Quick test_clock_advances ]);
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_on_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          QCheck_alcotest.to_alcotest heap_property;
          QCheck_alcotest.to_alcotest heap_fifo_property;
        ] );
    ]
