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
  Freelist.Allocator.validate a

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
  Freelist.Allocator.validate a

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
    QCheck.(list (pair bool (int_range 1 80)))
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
    QCheck.(list_of_size Gen.(int_range 0 150) (pair (int_range 0 99) (int_range 1 120)))
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

let allocator_fill_then_drain policy =
  QCheck.Test.make
    ~name:(Printf.sprintf "fill then drain returns all store under %s"
             (Freelist.Policy.to_string policy))
    ~count:30
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 1 60))
    (fun sizes ->
      let words = 8192 in
      let mem = Memstore.Physical.create ~name:"core" ~words in
      let a = Freelist.Allocator.create mem ~base:0 ~len:words ~policy in
      let addrs = List.filter_map (Freelist.Allocator.alloc a) sizes in
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

let buddy_random_ops =
  QCheck.Test.make ~name:"buddy random ops keep invariants" ~count:80
    QCheck.(list (pair bool (int_range 1 64)))
    (fun ops ->
      let b = Freelist.Buddy.create ~words:512 in
      let live = ref [] in
      List.iter
        (fun (do_alloc, n) ->
          if do_alloc || !live = [] then begin
            match Freelist.Buddy.alloc b n with
            | Some off -> live := off :: !live
            | None -> ()
          end
          else begin
            match !live with
            | off :: rest ->
              Freelist.Buddy.free b off;
              live := rest
            | [] -> ()
          end;
          check_buddy_valid b)
        ops;
      List.iter (Freelist.Buddy.free b) !live;
      check_buddy_valid b;
      Freelist.Buddy.largest_free b = 512)

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
            buddy_random_ops;
          ] );
      ( "buddy",
        [
          Alcotest.test_case "basic" `Quick test_buddy_basic;
          Alcotest.test_case "split+merge" `Quick test_buddy_split_and_merge;
          Alcotest.test_case "double free" `Quick test_buddy_double_free_rejected;
        ] );
      ("handle_table", [ Alcotest.test_case "lifecycle" `Quick test_handle_table ]);
    ]
