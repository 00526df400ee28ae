(* Tests for the freelist library: boundary-tag allocator, placement
   policies, compaction, buddy system, handle table. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let make_allocator ?(words = 1024) policy =
  let mem = Memstore.Physical.create ~name:"core" ~words in
  (mem, Freelist.Allocator.create mem ~base:0 ~len:words ~policy)

(* --- basic allocator behaviour --- *)

let test_alloc_free_roundtrip () =
  let _, a = make_allocator Freelist.Policy.First_fit in
  let addr = Option.get (Freelist.Allocator.alloc a 10) in
  check_bool "payload size at least request" true (Freelist.Allocator.payload_size a addr >= 10);
  check_int "live words" (Freelist.Allocator.payload_size a addr) (Freelist.Allocator.live_words a);
  check_int "live blocks" 1 (Freelist.Allocator.live_blocks a);
  Freelist.Allocator.validate a;
  Freelist.Allocator.free a addr;
  check_int "nothing live" 0 (Freelist.Allocator.live_words a);
  Freelist.Allocator.validate a;
  (* After freeing everything, one hole spans the region. *)
  Alcotest.(check (list int)) "one maximal hole" [ 1024 ] (Freelist.Allocator.free_block_sizes a)

let test_data_survives_neighbour_churn () =
  let mem, a = make_allocator Freelist.Policy.First_fit in
  let x = Option.get (Freelist.Allocator.alloc a 8) in
  let y = Option.get (Freelist.Allocator.alloc a 8) in
  for i = 0 to 7 do
    Memstore.Physical.write mem (x + i) (Int64.of_int (1000 + i));
    Memstore.Physical.write mem (y + i) (Int64.of_int (2000 + i))
  done;
  Freelist.Allocator.free a x;
  let z = Option.get (Freelist.Allocator.alloc a 4) in
  ignore z;
  for i = 0 to 7 do
    Alcotest.(check int64) "y intact" (Int64.of_int (2000 + i)) (Memstore.Physical.read mem (y + i))
  done

let test_coalescing_merges_all () =
  let _, a = make_allocator Freelist.Policy.First_fit in
  let addrs = List.init 8 (fun _ -> Option.get (Freelist.Allocator.alloc a 20)) in
  (* Free in an interleaved order to exercise prev-, next- and both-sided
     coalescing. *)
  List.iteri (fun i addr -> if i mod 2 = 0 then Freelist.Allocator.free a addr) addrs;
  Freelist.Allocator.validate a;
  List.iteri (fun i addr -> if i mod 2 = 1 then Freelist.Allocator.free a addr) addrs;
  Freelist.Allocator.validate a;
  Alcotest.(check (list int)) "fully coalesced" [ 1024 ] (Freelist.Allocator.free_block_sizes a)

let test_exhaustion_fails_cleanly () =
  let _, a = make_allocator ~words:64 Freelist.Policy.First_fit in
  check_bool "too big" true (Freelist.Allocator.alloc a 63 = None);
  check_int "failure recorded" 1 (Freelist.Allocator.failures a);
  let addr = Option.get (Freelist.Allocator.alloc a 62) in
  check_bool "whole region" true (Freelist.Allocator.alloc a 1 = None);
  Freelist.Allocator.free a addr;
  Freelist.Allocator.validate a

let test_free_bad_address_rejected () =
  let _, a = make_allocator Freelist.Policy.First_fit in
  let addr = Option.get (Freelist.Allocator.alloc a 10) in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "not an allocation" true (raises (fun () -> Freelist.Allocator.free a (addr + 1)));
  check_bool "outside region" true (raises (fun () -> Freelist.Allocator.free a 5000));
  Freelist.Allocator.free a addr;
  check_bool "double free" true (raises (fun () -> Freelist.Allocator.free a addr));
  (* Freed into the hole below it, y's old header still reads as a live
     block. *)
  let _, a = make_allocator Freelist.Policy.First_fit in
  let x = Option.get (Freelist.Allocator.alloc a 10) in
  let y = Option.get (Freelist.Allocator.alloc a 10) in
  let _z = Option.get (Freelist.Allocator.alloc a 10) in
  Freelist.Allocator.free a x;
  Freelist.Allocator.free a y;
  check_bool "double free after coalescing" true (raises (fun () -> Freelist.Allocator.free a y));
  check_int "z still live" 1 (Freelist.Allocator.live_blocks a);
  Freelist.Allocator.validate a;
  (* ... and then inside w, which a later request carves from that
     hole: freeing y again must not free a block in the middle of w. *)
  let _, a = make_allocator Freelist.Policy.First_fit in
  let x = Option.get (Freelist.Allocator.alloc a 10) in
  let y = Option.get (Freelist.Allocator.alloc a 10) in
  Freelist.Allocator.free a x;
  Freelist.Allocator.free a y;
  let w = Option.get (Freelist.Allocator.alloc a 40) in
  check_bool "w covers y's old block" true (w < y && y < w + 40);
  check_bool "double free under a later allocation" true
    (raises (fun () -> Freelist.Allocator.free a y));
  check_int "w still live" 1 (Freelist.Allocator.live_blocks a);
  Freelist.Allocator.validate a;
  Freelist.Allocator.free a w;
  Alcotest.(check (list int)) "one maximal hole" [ 1024 ] (Freelist.Allocator.free_block_sizes a)

(* --- placement policies --- *)

let test_best_fit_picks_smallest () =
  let _, a = make_allocator ~words:4096 Freelist.Policy.Best_fit in
  (* Carve holes of sizes ~100 and ~30 separated by live blocks. *)
  let h1 = Option.get (Freelist.Allocator.alloc a 100) in
  let p1 = Option.get (Freelist.Allocator.alloc a 10) in
  let h2 = Option.get (Freelist.Allocator.alloc a 30) in
  let p2 = Option.get (Freelist.Allocator.alloc a 10) in
  ignore p2;
  Freelist.Allocator.free a h1;
  Freelist.Allocator.free a h2;
  ignore p1;
  (* A 25-word request fits both holes; best fit must take the 30-hole,
     which is the higher-addressed one. *)
  let got = Option.get (Freelist.Allocator.alloc a 25) in
  check_int "reused the smaller hole" h2 got;
  Freelist.Allocator.validate a

let test_first_fit_picks_lowest () =
  let _, a = make_allocator ~words:4096 Freelist.Policy.First_fit in
  let h1 = Option.get (Freelist.Allocator.alloc a 100) in
  let p1 = Option.get (Freelist.Allocator.alloc a 10) in
  let h2 = Option.get (Freelist.Allocator.alloc a 30) in
  let p2 = Option.get (Freelist.Allocator.alloc a 10) in
  ignore p1;
  ignore p2;
  Freelist.Allocator.free a h1;
  Freelist.Allocator.free a h2;
  let got = Option.get (Freelist.Allocator.alloc a 25) in
  check_int "reused the first hole" h1 got;
  Freelist.Allocator.validate a

let test_worst_fit_picks_largest () =
  let _, a = make_allocator ~words:4096 Freelist.Policy.Worst_fit in
  let h1 = Option.get (Freelist.Allocator.alloc a 30) in
  let p1 = Option.get (Freelist.Allocator.alloc a 10) in
  let h2 = Option.get (Freelist.Allocator.alloc a 100) in
  let p2 = Option.get (Freelist.Allocator.alloc a 10) in
  (* Plug the tail so the trailing remainder is not the largest hole. *)
  let filler = Option.get (Freelist.Allocator.alloc a 3900) in
  ignore p1;
  ignore p2;
  ignore filler;
  Freelist.Allocator.free a h1;
  Freelist.Allocator.free a h2;
  let got = Option.get (Freelist.Allocator.alloc a 25) in
  check_int "took the big hole" h2 got;
  Freelist.Allocator.validate a

let test_two_ends_separates () =
  let _, a = make_allocator ~words:4096 (Freelist.Policy.Two_ends { small_max = 16 }) in
  let small = Option.get (Freelist.Allocator.alloc a 8) in
  let large = Option.get (Freelist.Allocator.alloc a 200) in
  check_bool "small low, large high" true (small < large);
  check_bool "large near the top" true (large > 4096 - 256);
  Freelist.Allocator.validate a;
  Freelist.Allocator.free a small;
  Freelist.Allocator.free a large;
  Freelist.Allocator.validate a

let test_next_fit_roves () =
  let _, a = make_allocator ~words:4096 Freelist.Policy.Next_fit in
  let x = Option.get (Freelist.Allocator.alloc a 10) in
  let y = Option.get (Freelist.Allocator.alloc a 10) in
  check_bool "successive allocations advance" true (y > x);
  Freelist.Allocator.validate a;
  (* A free that merges the rover's hole hands the rover to the merged
     hole's list successor.  [blocks] 12-word blocks fill the region,
     the steps free blocks by number (an allocation takes the next
     number) and the last one merges the rover's hole.  The final
     request fits both the merged hole and its successor, so it lands in
     the successor only if the search starts there. *)
  let rover_case name ~blocks steps ~want =
    let _, a = make_allocator ~words:(12 * blocks) Freelist.Policy.Next_fit in
    let addrs = ref (List.init blocks (fun _ -> Option.get (Freelist.Allocator.alloc a 10))) in
    List.iter
      (function
        | `Free i -> Freelist.Allocator.free a (List.nth !addrs i)
        | `Alloc n -> addrs := !addrs @ [ Option.get (Freelist.Allocator.alloc a n) ])
      steps;
    Freelist.Allocator.validate a;
    check_int name want (Option.get (Freelist.Allocator.alloc a 10))
  in
  (* Block 6, carved from the hole at 12, leaves the rover on 24..35;
     freeing block 3 grows that hole up to 47. *)
  rover_case "rover's hole absorbs the block" ~blocks:7
    [ `Free 1; `Free 2; `Free 5; `Alloc 10; `Free 3 ]
    ~want:61;
  (* Block 7, carved from the hole at 24, leaves the rover on 36..47;
     freeing block 7 moves that hole down to 24. *)
  rover_case "rover's hole moves down" ~blocks:7
    [ `Free 2; `Free 3; `Free 5; `Alloc 10; `Free 7 ]
    ~want:61;
  (* The rover on 24..35, block 3 between it and the hole at 48. *)
  rover_case "rover's hole absorbs the hole above" ~blocks:7
    [ `Free 1; `Free 2; `Free 4; `Free 6; `Alloc 10; `Free 3 ]
    ~want:73;
  (* Block 8 skips the hole at 12 and is carved from the one at 36,
     leaving the rover on 60..71; freeing block 2 grows the hole at 12
     up to block 8, and freeing block 8 merges all three. *)
  rover_case "hole below absorbs the rover's hole" ~blocks:8
    [ `Free 1; `Free 3; `Free 4; `Free 5; `Free 7; `Alloc 22; `Free 2; `Free 8 ]
    ~want:85

(* --- search cost --- *)

let test_search_stats_recorded () =
  let _, a = make_allocator Freelist.Policy.Best_fit in
  ignore (Freelist.Allocator.alloc a 5);
  ignore (Freelist.Allocator.alloc a 5);
  check_int "two searches" 2 (Metrics.Stats.count (Freelist.Allocator.search_stats a))

(* The examined count stays that of a linear scan, so only the store's
   read counter shows whether the allocator walks its free list.  With
   1,001 holes a walk costs hundreds of reads per operation. *)
let test_reads_flat_in_hole_count () =
  List.iter
    (fun policy ->
      let words = 65_536 in
      let mem = Memstore.Physical.create ~name:"core" ~words in
      let a = Freelist.Allocator.create mem ~base:0 ~len:words ~policy in
      let blocks = Array.init 2_000 (fun _ -> Option.get (Freelist.Allocator.alloc a 14)) in
      Array.iteri (fun i addr -> if i mod 2 = 0 then Freelist.Allocator.free a addr) blocks;
      check_int "holes" 1_001 (List.length (Freelist.Allocator.free_block_sizes a));
      let before = Memstore.Physical.reads mem in
      let sizes = [| 5; 14; 30; 100; 300 |] in
      for i = 0 to 199 do
        let addr = Option.get (Freelist.Allocator.alloc a sizes.(i mod Array.length sizes)) in
        Freelist.Allocator.free a addr
      done;
      let per_op = float_of_int (Memstore.Physical.reads mem - before) /. 400. in
      if per_op > 8. then
        Alcotest.failf "%s: %.1f reads per operation" (Freelist.Policy.to_string policy) per_op;
      Freelist.Allocator.validate a)
    Freelist.Policy.all_standard

(* What the store's counters cannot see: the host's own steps through
   the hole index.  A search, an edit and the rover's moves each step
   to O(log holes) nodes, and the logarithm grows by about 1.4x from
   1,001 to 16,001 holes; a walk or fold of the index grows 16x. *)
let test_index_work_flat_in_hole_count () =
  let per_op policy ~blocks =
    let words = (blocks * 16) + 33_536 in
    let mem = Memstore.Physical.create ~name:"core" ~words in
    let a = Freelist.Allocator.create mem ~base:0 ~len:words ~policy in
    let addrs = Array.init blocks (fun _ -> Option.get (Freelist.Allocator.alloc a 14)) in
    Array.iteri (fun i addr -> if i mod 2 = 0 then Freelist.Allocator.free a addr) addrs;
    check_int "holes" ((blocks / 2) + 1) (List.length (Freelist.Allocator.free_block_sizes a));
    let before = Freelist.Allocator.index_visits a in
    let sizes = [| 5; 14; 30; 100; 300 |] in
    for i = 0 to 199 do
      let addr = Option.get (Freelist.Allocator.alloc a sizes.(i mod Array.length sizes)) in
      Freelist.Allocator.free a addr
    done;
    let per_op = float_of_int (Freelist.Allocator.index_visits a - before) /. 400. in
    Freelist.Allocator.validate a;
    per_op
  in
  List.iter
    (fun policy ->
      let small = per_op policy ~blocks:2_000 and large = per_op policy ~blocks:32_000 in
      if large >= 2. *. small then
        Alcotest.failf "%s: %.1f index nodes per operation at 16,001 holes, %.1f at 1,001"
          (Freelist.Policy.to_string policy) large small)
    Freelist.Policy.all_standard

(* Store words one first-fit free reads and writes in each neighbour
   case.  The freed block lies below every other hole, and the tail of
   the region is a hole above it.  Whatever the neighbours, a free reads
   its own header and both neighbours' tags, and writes the merged
   hole's two tags: the free set lives in the index, not the store. *)
let test_free_store_traffic () =
  let traffic ~blocks ~holes =
    let mem, a = make_allocator Freelist.Policy.First_fit in
    let addrs = Array.init blocks (fun _ -> Option.get (Freelist.Allocator.alloc a 10)) in
    List.iter (fun i -> Freelist.Allocator.free a addrs.(i)) holes;
    let reads = Memstore.Physical.reads mem and writes = Memstore.Physical.writes mem in
    Freelist.Allocator.free a addrs.(1);
    let traffic = (Memstore.Physical.reads mem - reads, Memstore.Physical.writes mem - writes) in
    Freelist.Allocator.validate a;
    traffic
  in
  let check name want got = Alcotest.(check (pair int int)) name want got in
  check "no free neighbour" (3, 2) (traffic ~blocks:3 ~holes:[]);
  check "hole below grows" (3, 2) (traffic ~blocks:3 ~holes:[ 0 ]);
  check "hole above moves down" (3, 2) (traffic ~blocks:4 ~holes:[ 2 ]);
  check "both merge" (3, 2) (traffic ~blocks:4 ~holes:[ 0; 2 ])

(* --- compaction --- *)

let test_compaction_consolidates_and_preserves () =
  let words = 2048 in
  let mem = Memstore.Physical.create ~name:"core" ~words in
  let a = Freelist.Allocator.create mem ~base:0 ~len:words ~policy:Freelist.Policy.First_fit in
  let clock = Sim.Clock.create () in
  let chan = Memstore.Channel.create clock ~word_ns:500 in
  let handles = Freelist.Handle_table.create () in
  (* Allocate 20 blocks, fill each with a distinct pattern, free every
     other one to shatter the store. *)
  let blocks =
    List.init 20 (fun i ->
        let addr = Option.get (Freelist.Allocator.alloc a 16) in
        for k = 0 to 15 do
          Memstore.Physical.write mem (addr + k) (Int64.of_int ((i * 1000) + k))
        done;
        (i, addr))
  in
  let keep =
    List.filter_map
      (fun (i, addr) ->
        if i mod 2 = 0 then begin
          Freelist.Allocator.free a addr;
          None
        end
        else Some (i, Freelist.Handle_table.register handles addr))
      blocks
  in
  check_bool "store is shattered" true (List.length (Freelist.Allocator.free_block_sizes a) > 5);
  Freelist.Allocator.compact a chan ~relocate:(fun old_addr new_addr ->
      Freelist.Handle_table.relocate handles ~old_addr ~new_addr);
  Freelist.Allocator.validate a;
  Alcotest.(check int) "one hole after compaction" 1
    (List.length (Freelist.Allocator.free_block_sizes a));
  (* Every surviving block's contents are intact through its handle. *)
  List.iter
    (fun (i, h) ->
      let addr = Freelist.Handle_table.deref handles h in
      for k = 0 to 15 do
        Alcotest.(check int64) "content preserved" (Int64.of_int ((i * 1000) + k))
          (Memstore.Physical.read mem (addr + k))
      done)
    keep;
  check_bool "channel did work" true (Memstore.Channel.words_moved chan > 0);
  (* And the consolidated hole accepts a request no shard could. *)
  check_bool "big alloc now fits" true (Freelist.Allocator.alloc a 1500 <> None)

let test_compaction_empty_region () =
  let mem = Memstore.Physical.create ~name:"core" ~words:256 in
  let a = Freelist.Allocator.create mem ~base:0 ~len:256 ~policy:Freelist.Policy.First_fit in
  let clock = Sim.Clock.create () in
  let chan = Memstore.Channel.create clock ~word_ns:500 in
  Freelist.Allocator.compact a chan ~relocate:(fun _ _ -> Alcotest.fail "nothing to move");
  Freelist.Allocator.validate a

(* --- property tests --- *)

(* Random alloc/free interpreter that checks content integrity and
   invariants throughout. *)
let allocator_random_ops policy =
  QCheck.Test.make
    ~name:(Printf.sprintf "random ops sound under %s" (Freelist.Policy.to_string policy))
    ~count:60
    (* sizes are drawn less one, since QCheck shrinks every int towards 0 *)
    QCheck.(list (pair bool (int_bound 79)))
    (fun ops ->
      let words = 2048 in
      let mem = Memstore.Physical.create ~name:"core" ~words in
      let a = Freelist.Allocator.create mem ~base:0 ~len:words ~policy in
      let live = ref [] in
      let next_pattern = ref 0 in
      let fill addr n pat =
        for k = 0 to n - 1 do
          Memstore.Physical.write mem (addr + k) (Int64.of_int ((pat * 100_003) + k))
        done
      in
      let intact (addr, n, pat) =
        let ok = ref true in
        for k = 0 to n - 1 do
          if Memstore.Physical.read mem (addr + k) <> Int64.of_int ((pat * 100_003) + k) then
            ok := false
        done;
        !ok
      in
      List.iter
        (fun (do_alloc, n) ->
          let n = n + 1 in
          if do_alloc || !live = [] then begin
            match Freelist.Allocator.alloc a n with
            | Some addr ->
              let pat = !next_pattern in
              incr next_pattern;
              fill addr n pat;
              live := (addr, n, pat) :: !live
            | None -> ()
          end
          else begin
            match !live with
            | [] -> ()
            | entry :: rest ->
              if not (intact entry) then failwith "content corrupted";
              let addr, _, _ = entry in
              Freelist.Allocator.free a addr;
              live := rest
          end;
          Freelist.Allocator.validate a)
        ops;
      List.for_all intact !live)

(* A naive model of the placement rules, written from the policies'
   definitions: the holes are an address-ordered list that every search
   walks, counting the nodes it looks at. *)
module Model = struct
  type t = {
    len : int;
    policy : Freelist.Policy.t;
    mutable holes : (int * int) list;  (* (offset, words), ascending *)
    mutable rover : int option;  (* next fit: the hole to resume at *)
    mutable live : (int * int) list;  (* (offset, words) of live blocks *)
  }

  let create policy len = { len; policy; holes = [ (0, len) ]; rover = None; live = [] }

  let successor holes off = Option.map fst (List.find_opt (fun (o, _) -> o > off) holes)

  let head holes = match holes with (o, _) :: _ -> Some o | [] -> None

  (* A rover hole that goes hands the rover to its list successor. *)
  let remove_hole m off =
    if m.rover = Some off then m.rover <- successor m.holes off;
    m.holes <- List.filter (fun (o, _) -> o <> off) m.holes

  let set_hole m off words = m.holes <- List.sort compare ((off, words) :: m.holes)

  (* The chosen hole and the nodes examined. *)
  let search m ~needed ~take_high =
    let fits (_, words) = words >= needed in
    let rec first examined = function
      | [] -> (None, examined)
      | h :: rest -> if fits h then (Some h, examined + 1) else first (examined + 1) rest
    in
    let pick better =
      List.fold_left
        (fun best h ->
          match best with
          | Some b when not (better h b) -> best
          | _ -> if fits h then Some h else best)
        None m.holes
    in
    let all = List.length m.holes in
    match m.policy with
    | Freelist.Policy.First_fit -> first 0 m.holes
    | Freelist.Policy.Next_fit ->
      let before, from =
        List.partition (fun (o, _) -> match m.rover with Some r -> o < r | None -> false) m.holes
      in
      first 0 (from @ before)
    | Freelist.Policy.Best_fit -> (pick (fun (_, w) (_, b) -> w < b), all)
    | Freelist.Policy.Worst_fit -> (pick (fun (_, w) (_, b) -> w > b), all)
    | Freelist.Policy.Two_ends _ ->
      if take_high then (pick (fun _ _ -> true), all) else first 0 m.holes

  let alloc m n =
    let needed = max 4 (n + 2) in
    let take_high =
      match m.policy with Freelist.Policy.Two_ends { small_max } -> n > small_max | _ -> false
    in
    match search m ~needed ~take_high with
    | None, examined -> (None, examined)
    | Some (off, words), examined ->
      let remainder = words - needed in
      let block, granted, rover =
        if remainder >= 4 && take_high then begin
          remove_hole m off;
          set_hole m off remainder;
          (off + remainder, needed, Some off)
        end
        else if remainder >= 4 then begin
          remove_hole m off;
          set_hole m (off + needed) remainder;
          (off, needed, Some (off + needed))
        end
        else begin
          let succ = successor m.holes off in
          remove_hole m off;
          (off, words, succ)
        end
      in
      if m.policy = Freelist.Policy.Next_fit then
        m.rover <- (match rover with Some _ -> rover | None -> head m.holes);
      m.live <- (block, granted) :: m.live;
      (Some (block + 1), examined)

  let free m addr =
    let off = addr - 1 in
    let words = List.assoc off m.live in
    m.live <- List.remove_assoc off m.live;
    let words =
      match List.assoc_opt (off + words) m.holes with
      | Some above ->
        remove_hole m (off + words);
        words + above
      | None -> words
    in
    match List.find_opt (fun (o, w) -> o + w = off) m.holes with
    | Some (below, w) ->
      remove_hole m below;
      set_hole m below (w + words)
    | None -> set_hole m off words

  (* Slide the live blocks down; returns (old, new) payload addresses. *)
  let compact m =
    let moves, dst =
      List.fold_left
        (fun (moves, dst) (off, words) -> ((off, dst, words) :: moves, dst + words))
        ([], 0) (List.sort compare m.live)
    in
    let remainder = m.len - dst in
    m.rover <- None;
    m.holes <- (if remainder >= 4 then [ (dst, remainder) ] else []);
    m.live <-
      List.mapi
        (fun i (_, off, words) -> (off, if i = 0 && remainder < 4 then words + remainder else words))
        moves;
    List.map (fun (off, off', _) -> (off + 1, off' + 1)) moves
end

(* The allocator and the model in lockstep: allocations, frees at random
   positions and occasional compactions.  After every request both give
   the same address or failure, the same examined count and the same
   holes. *)
let allocator_matches_model policy =
  QCheck.Test.make
    ~name:(Printf.sprintf "placement matches the list model under %s"
             (Freelist.Policy.to_string policy))
    ~count:60
    (* sizes are drawn less one, since QCheck shrinks every int towards 0 *)
    QCheck.(list_of_size Gen.(int_range 0 150) (pair (int_bound 99) (int_bound 119)))
    (fun ops ->
      let words = 1024 in
      let mem = Memstore.Physical.create ~name:"core" ~words in
      let a = Freelist.Allocator.create mem ~base:0 ~len:words ~policy in
      let m = Model.create policy words in
      let channel = Memstore.Channel.create (Sim.Clock.create ()) ~word_ns:500 in
      let live = ref [] in
      let examined () = int_of_float (Metrics.Stats.total (Freelist.Allocator.search_stats a)) in
      List.iteri
        (fun step (k, n) ->
          let n = n + 1 in
          if k < 50 || !live = [] then begin
            let before = examined () in
            let got = Freelist.Allocator.alloc a n in
            let want, want_examined = Model.alloc m n in
            let show = function Some p -> string_of_int p | None -> "none" in
            if got <> want then
              QCheck.Test.fail_reportf "step %d, alloc %d: %s, model %s" step n (show got)
                (show want);
            if examined () - before <> want_examined then
              QCheck.Test.fail_reportf "step %d, alloc %d: examined %d, model %d" step n
                (examined () - before) want_examined;
            Option.iter (fun p -> live := p :: !live) got
          end
          else if k < 97 then begin
            let addr = List.nth !live (n mod List.length !live) in
            live := List.filter (fun p -> p <> addr) !live;
            Freelist.Allocator.free a addr;
            Model.free m addr
          end
          else begin
            let moved = ref [] in
            Freelist.Allocator.compact a channel ~relocate:(fun p p' -> moved := (p, p') :: !moved);
            let model_moved = Model.compact m in
            let follow moves p = Option.value (List.assoc_opt p moves) ~default:p in
            live :=
              List.map
                (fun p ->
                  if follow !moved p <> follow model_moved p then
                    QCheck.Test.fail_reportf "step %d: compaction moved %d apart" step p;
                  follow !moved p)
                !live
          end;
          if Freelist.Allocator.free_block_sizes a <> List.map snd m.holes then
            QCheck.Test.fail_reportf "step %d: holes differ from the model" step;
          Freelist.Allocator.validate a)
        ops;
      true)

(* Hole_index alone against a sorted (key, size) list: random adds,
   removes and changes that cross no other key.  After every operation
   the index is well formed, and it and the list agree on their
   contents and on the queries at a random probe, the rank of
   [first]'s hit included. *)
let hole_index_matches_model =
  let module H = Freelist.Hole_index in
  QCheck.Test.make ~name:"hole index matches a sorted list" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 0 200)
        (quad (int_bound 3) (int_bound 999) (int_range 1 120)
           (pair (int_bound 1000) (int_bound 121))))
    (fun ops ->
      let t = H.create () in
      let model = ref [] in
      List.iteri
        (fun step (op, x, size, (probe, needed)) ->
          let keys = List.map fst !model in
          let n = List.length keys in
          (match op with
           | (0 | 1) when not (List.mem_assoc x !model) ->
             H.add t ~key:x ~size;
             model := List.sort compare ((x, size) :: !model)
           | 2 when n > 0 ->
             let k = List.nth keys (x mod n) in
             H.remove t k;
             model := List.remove_assoc k !model
           | 3 when n > 0 ->
             (* A new key in the gap between k's neighbours. *)
             let i = x mod n in
             let k = List.nth keys i in
             let lo = if i = 0 then -1 else List.nth keys (i - 1) in
             let hi = if i = n - 1 then 1000 else List.nth keys (i + 1) in
             let key = lo + 1 + (probe mod (hi - lo - 1)) in
             H.change t k ~key ~size;
             model := List.sort compare ((key, size) :: List.remove_assoc k !model)
           | _ -> ());
          let m = !model in
          let fits (_, s) = s >= needed in
          let key_of = function Some (k, _) -> k | None -> -1 in
          let expect what got want =
            if got <> want then
              QCheck.Test.fail_reportf "step %d: %s %d, model %d" step what got want
          in
          (match H.check t with
           | Ok () -> ()
           | Error e -> QCheck.Test.fail_reportf "step %d: %s" step e);
          if H.fold t (fun k s acc -> (k, s) :: acc) [] <> m then
            QCheck.Test.fail_reportf "step %d: fold differs from the model" step;
          expect "length" (H.length t) (List.length m);
          expect "largest" (H.largest t) (List.fold_left (fun l (_, s) -> max l s) 0 m);
          expect "rank" (H.rank t probe) (List.length (List.filter (fun (k, _) -> k < probe) m));
          let hit = H.first t ~from:probe ~needed in
          expect "first" hit (key_of (List.find_opt (fun (k, s) -> k >= probe && fits (k, s)) m));
          if hit >= 0 then
            expect "hit rank" (H.hit_rank t) (List.length (List.filter (fun (k, _) -> k < hit) m));
          expect "last" (H.last t ~needed) (key_of (List.find_opt fits (List.rev m))))
        ops;
      true)

let allocator_fill_then_drain policy =
  QCheck.Test.make
    ~name:(Printf.sprintf "fill then drain returns all store under %s"
             (Freelist.Policy.to_string policy))
    ~count:30
    (* sizes are drawn less one, since QCheck shrinks every int towards 0 *)
    QCheck.(list_of_size Gen.(int_range 1 40) (int_bound 59))
    (fun sizes ->
      let words = 8192 in
      let mem = Memstore.Physical.create ~name:"core" ~words in
      let a = Freelist.Allocator.create mem ~base:0 ~len:words ~policy in
      let addrs = List.filter_map (fun n -> Freelist.Allocator.alloc a (n + 1)) sizes in
      List.iter (Freelist.Allocator.free a) addrs;
      Freelist.Allocator.validate a;
      Freelist.Allocator.free_block_sizes a = [ words ])

(* --- buddy --- *)

let check_buddy_valid b =
  match Freelist.Buddy.validate b with
  | Ok () -> ()
  | Error e -> Alcotest.failf "buddy invariant: %s" (Freelist.Buddy.describe_error e)

let test_buddy_basic () =
  let b = Freelist.Buddy.create ~words:256 in
  let x = Option.get (Freelist.Buddy.alloc b 10) in
  check_int "granted rounds up" 16 (Freelist.Buddy.granted_size 10);
  check_int "live granted" 16 (Freelist.Buddy.live_granted b);
  check_int "live requested" 10 (Freelist.Buddy.live_requested b);
  check_buddy_valid b;
  Freelist.Buddy.free b x;
  check_int "all free" 256 (Freelist.Buddy.free_words b);
  check_int "merged back" 256 (Freelist.Buddy.largest_free b);
  check_buddy_valid b

let test_buddy_split_and_merge () =
  let b = Freelist.Buddy.create ~words:64 in
  let xs = List.init 4 (fun _ -> Option.get (Freelist.Buddy.alloc b 16)) in
  check_int "exhausted" 0 (Freelist.Buddy.free_words b);
  check_bool "no more" true (Freelist.Buddy.alloc b 1 = None);
  List.iter (Freelist.Buddy.free b) xs;
  check_int "fully merged" 64 (Freelist.Buddy.largest_free b);
  check_buddy_valid b

let test_buddy_double_free_rejected () =
  let b = Freelist.Buddy.create ~words:64 in
  let x = Option.get (Freelist.Buddy.alloc b 8) in
  Freelist.Buddy.free b x;
  check_bool "double free" true
    (match Freelist.Buddy.free b x with
     | () -> false
     | exception Invalid_argument _ -> true)

(* An exact model of the binary buddy system, written from its
   definition: the free blocks are a sorted list of (offset, order).  An
   allocation takes the smallest free order at least ceil(log2 n) and the
   lowest offset in it, then splits it down to size, leaving the upper
   halves free; a free merges the block with its buddy while that buddy
   is free. *)
module Buddy_model = struct
  type t = {
    max_order : int;
    mutable free : (int * int) list;  (* (offset, order), ascending *)
    mutable live : (int * (int * int)) list;  (* offset -> (order, requested) *)
  }

  let rec order_of ?(o = 0) n = if 1 lsl o >= n then o else order_of ~o:(o + 1) n

  let create words =
    let max_order = order_of words in
    { max_order; free = [ (0, max_order) ]; live = [] }

  let alloc m n =
    let want = order_of n in
    let by_order (a, o) (b, p) = compare (o, a) (p, b) in
    match List.sort by_order (List.filter (fun (_, o) -> o >= want) m.free) with
    | [] -> None
    | ((off, o) as block) :: _ ->
      let upper_halves = List.init (o - want) (fun i -> (off + (1 lsl (want + i)), want + i)) in
      m.free <- List.sort compare (upper_halves @ List.filter (( <> ) block) m.free);
      m.live <- (off, (want, n)) :: m.live;
      Some off

  let free m off =
    let order, _ = List.assoc off m.live in
    m.live <- List.remove_assoc off m.live;
    let rec merge off o =
      let buddy = (off lxor (1 lsl o), o) in
      if o < m.max_order && List.mem buddy m.free then begin
        m.free <- List.filter (( <> ) buddy) m.free;
        merge (min off (fst buddy)) (o + 1)
      end
      else m.free <- List.sort compare ((off, o) :: m.free)
    in
    merge off order

  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

  let free_words m = sum (fun (_, o) -> 1 lsl o) m.free

  let largest_free m = List.fold_left (fun l (_, o) -> max l (1 lsl o)) 0 m.free

  let live_granted m = sum (fun (_, (o, _)) -> 1 lsl o) m.live

  let live_requested m = sum (fun (_, (_, n)) -> n) m.live
end

(* Buddy and its model in lockstep through random allocations (some
   larger than the store) and frees of live blocks.  After every request
   both give the same offset or failure and the same counts, and the
   buddy system validates. *)
let buddy_matches_model =
  QCheck.Test.make ~name:"buddy matches an exact model" ~count:200
    (* sizes are drawn less one, since QCheck shrinks every int towards 0 *)
    QCheck.(list_of_size Gen.(int_range 0 150) (pair (int_bound 99) (int_bound 129)))
    (fun ops ->
      let words = 512 in
      let b = Freelist.Buddy.create ~words in
      let m = Buddy_model.create words in
      let live = ref [] in
      List.iteri
        (fun step (k, n) ->
          let fail fmt =
            Printf.ksprintf (fun msg -> QCheck.Test.fail_reportf "step %d: %s" step msg) fmt
          in
          if k < 55 || !live = [] then begin
            let n = if k < 5 then 5 * (n + 1) else n + 1 in
            let got = Freelist.Buddy.alloc b n and want = Buddy_model.alloc m n in
            let show = function Some off -> string_of_int off | None -> "none" in
            if got <> want then fail "alloc %d: %s, model %s" n (show got) (show want);
            Option.iter (fun off -> live := off :: !live) got
          end
          else begin
            let off = List.nth !live (n mod List.length !live) in
            live := List.filter (( <> ) off) !live;
            Freelist.Buddy.free b off;
            Buddy_model.free m off
          end;
          let expect what got want = if got <> want then fail "%s %d, model %d" what got want in
          expect "free_words" (Freelist.Buddy.free_words b) (Buddy_model.free_words m);
          expect "largest_free" (Freelist.Buddy.largest_free b) (Buddy_model.largest_free m);
          expect "live_granted" (Freelist.Buddy.live_granted b) (Buddy_model.live_granted m);
          expect "live_requested" (Freelist.Buddy.live_requested b) (Buddy_model.live_requested m);
          match Freelist.Buddy.validate b with
          | Ok () -> ()
          | Error e -> fail "invalid: %s" (Freelist.Buddy.describe_error e))
        ops;
      true)

(* --- one contract for the variable-unit allocators --- *)

(* The requests the contract makes.  [Free i] and [Double_free i] pick
   among the live blocks and the freed addresses, [Foreign w] names
   store word [w] (or one just outside the store) unless it was ever
   granted. *)
type op = Alloc of int | Free of int | Double_free of int | Foreign of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun n -> Alloc n) (int_range 1 64));
        (4, map (fun i -> Free i) nat);
        (1, map (fun i -> Double_free i) nat);
        (1, map (fun w -> Foreign w) (int_range (-2) 530));
      ])

let show_op = function
  | Alloc n -> Printf.sprintf "alloc %d" n
  | Free i -> Printf.sprintf "free #%d" i
  | Double_free i -> Printf.sprintf "double free #%d" i
  | Foreign w -> Printf.sprintf "foreign %d" w

(* An engine as the contract drives it: [alloc n] returns the address
   [free] takes and the extent [lo, hi) of the block granted; the store
   is [0, words); [validate] is the engine's own check, in its current
   shape, raising [Failure]; [drained] holds once everything is free. *)
type engine = {
  name : string;
  words : int;
  alloc : int -> (int * int * int) option;
  free : int -> unit;
  validate : unit -> unit;
  drained : unit -> bool;
}

let allocator_engine policy =
  let words = 512 in
  let mem = Memstore.Physical.create ~name:"core" ~words in
  let a = Freelist.Allocator.create mem ~base:0 ~len:words ~policy in
  {
    name = Freelist.Policy.to_string policy;
    words;
    alloc =
      (fun n ->
        Option.map
          (fun p ->
            (* the block runs from its header to its footer *)
            (p, p - 1, p + Freelist.Allocator.payload_size a p + 1))
          (Freelist.Allocator.alloc a n));
    free = Freelist.Allocator.free a;
    validate = (fun () -> Freelist.Allocator.validate a);
    drained = (fun () -> Freelist.Allocator.free_block_sizes a = [ words ]);
  }

let buddy_engine () =
  let words = 512 in
  let b = Freelist.Buddy.create ~words in
  {
    name = "buddy";
    words;
    alloc =
      (fun n ->
        Option.map (fun off -> (off, off, off + Freelist.Buddy.granted_size n))
          (Freelist.Buddy.alloc b n));
    free = Freelist.Buddy.free b;
    validate =
      (fun () ->
        match Freelist.Buddy.validate b with
        | Ok () -> ()
        | Error e -> failwith (Freelist.Buddy.describe_error e));
    drained = (fun () -> Freelist.Buddy.largest_free b = words);
  }

let rice_engine () =
  let words = 512 in
  let mem = Memstore.Physical.create ~name:"core" ~words in
  let c = Segmentation.Rice_chain.create mem ~base:0 ~len:words in
  {
    name = "rice chain";
    words;
    alloc =
      (fun n ->
        (* a back-reference word, then the payload *)
        Option.map (fun off -> (off, off, off + 1 + n))
          (Segmentation.Rice_chain.alloc c ~payload:n ~codeword:0));
    free = Segmentation.Rice_chain.free c;
    validate = (fun () -> Segmentation.Rice_chain.validate c);
    (* combining every inactive block gives the whole store back *)
    drained = (fun () -> Segmentation.Rice_chain.alloc c ~payload:(words - 1) ~codeword:0 = Some 0);
  }

(* Drive one engine through [ops].  After every request the engine
   validates and every live block lies in the store and overlaps no
   other; a free of an address that is not live must raise
   [Invalid_argument].  At the end every live block frees and the
   engine drains. *)
let run_contract e ops =
  let fail step op fmt =
    Printf.ksprintf
      (fun msg -> QCheck.Test.fail_reportf "%s, step %d (%s): %s" e.name step (show_op op) msg)
      fmt
  in
  let live = ref [] (* (address, lo, hi), newest first *)
  and freed = ref []
  and granted = Hashtbl.create 64 in
  let refuse step op p =
    match e.free p with
    | () -> fail step op "free of %d accepted" p
    | exception Invalid_argument _ -> ()
  in
  List.iteri
    (fun step op ->
      (match op with
       | Alloc n ->
         Option.iter
           (fun ((p, _, _) as b) ->
             Hashtbl.replace granted p ();
             freed := List.filter (( <> ) p) !freed;
             live := b :: !live)
           (e.alloc n)
       | Free i when !live <> [] ->
         let ((p, _, _) as b) = List.nth !live (i mod List.length !live) in
         e.free p;
         live := List.filter (( != ) b) !live;
         freed := p :: !freed
       | Double_free i when !freed <> [] -> refuse step op (List.nth !freed (i mod List.length !freed))
       | Foreign w when not (Hashtbl.mem granted w) -> refuse step op w
       | Free _ | Double_free _ | Foreign _ -> ());
      (match e.validate () with
       | () -> ()
       | exception Failure msg -> fail step op "invalid: %s" msg);
      let sorted = List.sort (fun (_, a, _) (_, b, _) -> compare a b) !live in
      ignore
        (List.fold_left
           (fun prev_hi (p, lo, hi) ->
             if lo < 0 || hi > e.words || lo >= hi then
               fail step op "block %d at [%d, %d) outside the store" p lo hi;
             if lo < prev_hi then fail step op "block %d at [%d, %d) overlaps" p lo hi;
             hi)
           0 sorted))
    ops;
  List.iter (fun (p, _, _) -> e.free p) !live;
  e.validate ();
  e.drained ()

let allocator_contract =
  QCheck.Test.make
    ~name:"allocator contract: every engine stays valid and refuses bad frees" ~count:100
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 0 100) op_gen))
    (fun ops ->
      List.for_all
        (fun e -> run_contract e ops)
        (List.map allocator_engine Freelist.Policy.all_standard
        @ [ buddy_engine (); rice_engine () ]))

(* --- handle table --- *)

let test_handle_table () =
  let t = Freelist.Handle_table.create () in
  let h1 = Freelist.Handle_table.register t 100 in
  let h2 = Freelist.Handle_table.register t 200 in
  check_int "deref h1" 100 (Freelist.Handle_table.deref t h1);
  check_int "live" 2 (Freelist.Handle_table.live t);
  Freelist.Handle_table.relocate t ~old_addr:100 ~new_addr:150;
  check_int "relocated" 150 (Freelist.Handle_table.deref t h1);
  check_int "other untouched" 200 (Freelist.Handle_table.deref t h2);
  Freelist.Handle_table.release t h1;
  check_int "live after release" 1 (Freelist.Handle_table.live t);
  check_bool "dead handle rejected" true
    (match Freelist.Handle_table.deref t h1 with
     | _ -> false
     | exception Invalid_argument _ -> true);
  (* Slot reuse must not resurrect the old handle's target. *)
  let h3 = Freelist.Handle_table.register t 300 in
  check_int "new handle works" 300 (Freelist.Handle_table.deref t h3)

let () =
  Alcotest.run "freelist"
    [
      ( "allocator",
        [
          Alcotest.test_case "roundtrip" `Quick test_alloc_free_roundtrip;
          Alcotest.test_case "data survives churn" `Quick test_data_survives_neighbour_churn;
          Alcotest.test_case "coalescing" `Quick test_coalescing_merges_all;
          Alcotest.test_case "exhaustion" `Quick test_exhaustion_fails_cleanly;
          Alcotest.test_case "bad free rejected" `Quick test_free_bad_address_rejected;
          Alcotest.test_case "search stats" `Quick test_search_stats_recorded;
          Alcotest.test_case "reads flat in hole count" `Quick test_reads_flat_in_hole_count;
          Alcotest.test_case "index work flat in hole count" `Quick
            test_index_work_flat_in_hole_count;
          Alcotest.test_case "free store traffic" `Quick test_free_store_traffic;
        ] );
      ( "placement",
        [
          Alcotest.test_case "best fit" `Quick test_best_fit_picks_smallest;
          Alcotest.test_case "first fit" `Quick test_first_fit_picks_lowest;
          Alcotest.test_case "worst fit" `Quick test_worst_fit_picks_largest;
          Alcotest.test_case "two ends" `Quick test_two_ends_separates;
          Alcotest.test_case "next fit" `Quick test_next_fit_roves;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "consolidates+preserves" `Quick test_compaction_consolidates_and_preserves;
          Alcotest.test_case "empty region" `Quick test_compaction_empty_region;
        ] );
      ( "properties",
        List.map
          (fun p -> QCheck_alcotest.to_alcotest p)
          [
            allocator_random_ops Freelist.Policy.First_fit;
            allocator_random_ops Freelist.Policy.Next_fit;
            allocator_random_ops Freelist.Policy.Best_fit;
            allocator_random_ops Freelist.Policy.Worst_fit;
            allocator_random_ops (Freelist.Policy.Two_ends { small_max = 20 });
            allocator_matches_model Freelist.Policy.First_fit;
            allocator_matches_model Freelist.Policy.Next_fit;
            allocator_matches_model Freelist.Policy.Best_fit;
            allocator_matches_model Freelist.Policy.Worst_fit;
            allocator_matches_model (Freelist.Policy.Two_ends { small_max = 20 });
            allocator_fill_then_drain Freelist.Policy.First_fit;
            allocator_fill_then_drain Freelist.Policy.Best_fit;
            allocator_fill_then_drain (Freelist.Policy.Two_ends { small_max = 20 });
            allocator_contract;
            hole_index_matches_model;
          ] );
      ( "buddy",
        [
          Alcotest.test_case "basic" `Quick test_buddy_basic;
          Alcotest.test_case "split+merge" `Quick test_buddy_split_and_merge;
          Alcotest.test_case "double free" `Quick test_buddy_double_free_rejected;
          QCheck_alcotest.to_alcotest buddy_matches_model;
        ] );
      ("handle_table", [ Alcotest.test_case "lifecycle" `Quick test_handle_table ]);
    ]
