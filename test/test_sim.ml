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
