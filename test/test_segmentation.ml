(* Tests for the segmentation library: descriptors/PRT, codewords, the
   Rice inactive-chain allocator, the segment store, two-level mapping. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Descriptor / PRT --- *)

let test_prt_access () =
  let prt = Segmentation.Descriptor.Prt.create () in
  let s = Segmentation.Descriptor.Prt.add prt ~extent:100 in
  let d = Segmentation.Descriptor.Prt.descriptor prt s in
  check_bool "starts absent" true
    (match Segmentation.Descriptor.Prt.address prt ~segment:s ~index:5 with
     | _ -> false
     | exception Segmentation.Descriptor.Segment_absent n -> n = s);
  d.Segmentation.Descriptor.present <- true;
  d.Segmentation.Descriptor.base <- 1000;
  check_int "base + index" 1005 (Segmentation.Descriptor.Prt.address prt ~segment:s ~index:5);
  check_bool "use bit set" true d.Segmentation.Descriptor.used

let test_prt_subscript_check () =
  let prt = Segmentation.Descriptor.Prt.create () in
  let s = Segmentation.Descriptor.Prt.add prt ~extent:10 in
  (Segmentation.Descriptor.Prt.descriptor prt s).Segmentation.Descriptor.present <- true;
  check_bool "subscript trapped" true
    (match Segmentation.Descriptor.Prt.address prt ~segment:s ~index:10 with
     | _ -> false
     | exception Segmentation.Descriptor.Subscript_violation v -> v.extent = 10);
  check_bool "negative trapped" true
    (match Segmentation.Descriptor.Prt.address prt ~segment:s ~index:(-1) with
     | _ -> false
     | exception Segmentation.Descriptor.Subscript_violation _ -> true)

(* --- Codeword --- *)

let test_codeword_indexing () =
  let regs = Segmentation.Codeword.Registers.create ~count:4 in
  let cw = Segmentation.Codeword.make ~extent:50 ~index_register:2 in
  cw.Segmentation.Codeword.present <- true;
  cw.Segmentation.Codeword.base <- 500;
  check_int "no index" 510
    (Segmentation.Codeword.address regs ~codeword_id:0 cw ~offset:10);
  Segmentation.Codeword.Registers.set regs 2 7;
  check_int "index auto-added" 517
    (Segmentation.Codeword.address regs ~codeword_id:0 cw ~offset:10);
  check_bool "bound check includes index" true
    (match Segmentation.Codeword.address regs ~codeword_id:0 cw ~offset:45 with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_codeword_absent () =
  let regs = Segmentation.Codeword.Registers.create ~count:1 in
  let cw = Segmentation.Codeword.make ~extent:10 ~index_register:0 in
  check_bool "absent traps" true
    (match Segmentation.Codeword.address regs ~codeword_id:3 cw ~offset:0 with
     | _ -> false
     | exception Segmentation.Codeword.Segment_absent 3 -> true)

(* --- Rice_chain --- *)

let make_chain ?(words = 256) () =
  let mem = Memstore.Physical.create ~name:"core" ~words in
  (mem, Segmentation.Rice_chain.create mem ~base:0 ~len:words)

let test_rice_sequential_then_chain () =
  let _, c = make_chain ~words:64 () in
  let a = Option.get (Segmentation.Rice_chain.alloc c ~payload:15 ~codeword:1) in
  let b = Option.get (Segmentation.Rice_chain.alloc c ~payload:15 ~codeword:2) in
  check_int "sequential placement" 0 a;
  check_int "second right after" 16 b;
  check_int "frontier" 32 (Segmentation.Rice_chain.frontier c);
  check_int "back reference" 2 (Segmentation.Rice_chain.back_reference c b);
  Segmentation.Rice_chain.validate c;
  Segmentation.Rice_chain.free c a;
  (* Frontier still has room, so sequential placement continues. *)
  let d = Option.get (Segmentation.Rice_chain.alloc c ~payload:31 ~codeword:3) in
  check_int "still sequential" 32 d;
  (* Frontier exhausted; the inactive chain supplies the next block. *)
  let e = Option.get (Segmentation.Rice_chain.alloc c ~payload:15 ~codeword:4) in
  check_int "reused inactive block" a e;
  Segmentation.Rice_chain.validate c

let test_rice_leftover_replaces_block () =
  let _, c = make_chain ~words:64 () in
  let a = Option.get (Segmentation.Rice_chain.alloc c ~payload:40 ~codeword:1) in
  ignore (Option.get (Segmentation.Rice_chain.alloc c ~payload:22 ~codeword:2));
  Segmentation.Rice_chain.free c a;
  (* 41-word inactive block; a 20-word request leaves a 20-word leftover
     that must replace the original in the chain. *)
  let b = Option.get (Segmentation.Rice_chain.alloc c ~payload:20 ~codeword:3) in
  check_int "low end of the hole" a b;
  let chain = Segmentation.Rice_chain.chain_blocks c in
  check_int "one leftover block" 1 (List.length chain);
  let off, size = List.hd chain in
  check_int "leftover offset" (a + 21) off;
  check_int "leftover size" 20 size;
  Segmentation.Rice_chain.validate c

let test_rice_combine_adjacent () =
  let _, c = make_chain ~words:66 () in
  (* Three adjacent 21-word blocks fill the store (frontier 63, 3 words
     slack which is < min block so unusable). *)
  let xs =
    List.init 3 (fun i ->
        Option.get (Segmentation.Rice_chain.alloc c ~payload:20 ~codeword:i))
  in
  check_bool "full" true (Segmentation.Rice_chain.alloc c ~payload:40 ~codeword:9 = None);
  List.iter (Segmentation.Rice_chain.free c) xs;
  (* No single inactive block holds 41 words, but combining does. *)
  let big = Segmentation.Rice_chain.alloc c ~payload:40 ~codeword:9 in
  check_bool "combined blocks satisfy" true (big <> None);
  check_bool "combine counted" true (Segmentation.Rice_chain.combines c >= 1);
  Segmentation.Rice_chain.validate c

let test_rice_double_free () =
  let _, c = make_chain () in
  let a = Option.get (Segmentation.Rice_chain.alloc c ~payload:10 ~codeword:1) in
  Segmentation.Rice_chain.free c a;
  check_bool "double free rejected" true
    (match Segmentation.Rice_chain.free c a with
     | () -> false
     | exception Invalid_argument _ -> true)

let rice_random_ops =
  QCheck.Test.make ~name:"rice chain random ops keep tiling" ~count:80
    (* sizes are drawn less one, since QCheck shrinks every int towards 0 *)
    QCheck.(list (pair bool (int_bound 39)))
    (fun ops ->
      let _, c = make_chain ~words:512 () in
      let live = ref [] in
      List.iter
        (fun (do_alloc, n) ->
          let n = n + 1 in
          if do_alloc || !live = [] then begin
            match Segmentation.Rice_chain.alloc c ~payload:n ~codeword:n with
            | Some off -> live := off :: !live
            | None -> ()
          end
          else begin
            match !live with
            | off :: rest ->
              Segmentation.Rice_chain.free c off;
              live := rest
            | [] -> ()
          end;
          Segmentation.Rice_chain.validate c)
        ops;
      true)

(* An exact model of the Rice chain, in lists: the frontier, the
   inactive blocks in chain order and the active blocks' sizes.  It
   places sequentially first; then takes the first fit along the chain,
   whose leftover replaces the block when it can hold the size and link
   words, and is granted with it otherwise; then combines adjacent
   inactive blocks, reclaims one that abuts the frontier and tries the
   chain, then the frontier, again.  A freed block goes on the head of
   the chain. *)
module Rice_model = struct
  type t = {
    len : int;
    mutable frontier : int;
    mutable chain : (int * int) list;  (* (offset, size), chain order *)
    mutable active : (int * int) list;  (* offset -> size *)
    mutable combines : int;
  }

  let create len = { len; frontier = 0; chain = []; active = []; combines = 0 }

  let claim m off size =
    m.active <- (off, size) :: m.active;
    Some off

  let sequential m total =
    if m.len - m.frontier < total then None
    else begin
      let off = m.frontier in
      m.frontier <- off + total;
      claim m off total
    end

  let first_fit m total =
    let rec go before = function
      | [] -> None
      | (off, size) :: after when size >= total ->
        if size - total >= 2 then begin
          m.chain <- List.rev_append before ((off + total, size - total) :: after);
          claim m off total
        end
        else begin
          m.chain <- List.rev_append before after;
          claim m off size
        end
      | block :: after -> go (block :: before) after
    in
    go [] m.chain

  let combine m =
    m.combines <- m.combines + 1;
    let merged =
      List.fold_left
        (fun acc (o, s) ->
          match acc with
          | (o', s') :: rest when o' + s' = o -> (o', s' + s) :: rest
          | _ -> (o, s) :: acc)
        [] (List.sort compare m.chain)
    in
    let merged =
      match merged with
      | (o, s) :: rest when o + s = m.frontier ->
        m.frontier <- o;
        rest
      | _ -> merged
    in
    m.chain <- List.rev merged

  let alloc m payload =
    let total = max 2 (payload + 1) in
    let ( ||| ) a b = match a with Some _ -> a | None -> b () in
    sequential m total
    ||| fun () ->
    first_fit m total
    ||| fun () ->
    combine m;
    first_fit m total ||| fun () -> sequential m total

  let free m off =
    let size = List.assoc off m.active in
    m.active <- List.remove_assoc off m.active;
    m.chain <- (off, size) :: m.chain
end

(* The chain and its model in lockstep through random allocations and
   frees of live blocks: after every request both give the same offset
   or refusal, chain, frontier and combine count, and the chain tiles. *)
let rice_matches_model =
  QCheck.Test.make ~name:"rice chain matches an exact model" ~count:300
    (* sizes are drawn less one, since QCheck shrinks every int towards 0 *)
    QCheck.(list_of_size Gen.(int_range 0 120) (pair (int_bound 99) (int_bound 39)))
    (fun ops ->
      let words = 192 in
      let _, c = make_chain ~words () in
      let m = Rice_model.create words in
      let live = ref [] in
      let show_blocks l =
        String.concat " " (List.map (fun (o, s) -> Printf.sprintf "%d+%d" o s) l)
      in
      List.iteri
        (fun step (k, n) ->
          let fail fmt =
            Printf.ksprintf (fun msg -> QCheck.Test.fail_reportf "step %d: %s" step msg) fmt
          in
          if k < 60 || !live = [] then begin
            let payload = n + 1 in
            let got = Segmentation.Rice_chain.alloc c ~payload ~codeword:step
            and want = Rice_model.alloc m payload in
            let show = function Some off -> string_of_int off | None -> "none" in
            if got <> want then fail "alloc %d: %s, model %s" payload (show got) (show want);
            Option.iter (fun off -> live := off :: !live) got
          end
          else begin
            let off = List.nth !live (n mod List.length !live) in
            live := List.filter (( <> ) off) !live;
            Segmentation.Rice_chain.free c off;
            Rice_model.free m off
          end;
          let chain = Segmentation.Rice_chain.chain_blocks c in
          if chain <> m.chain then fail "chain %s, model %s" (show_blocks chain) (show_blocks m.chain);
          let expect what got want = if got <> want then fail "%s %d, model %d" what got want in
          expect "frontier" (Segmentation.Rice_chain.frontier c) m.frontier;
          expect "combines" (Segmentation.Rice_chain.combines c) m.combines;
          match Segmentation.Rice_chain.validate c with
          | () -> ()
          | exception Failure msg -> fail "invalid: %s" msg)
        ops;
      true)

(* --- Segment_store --- *)

let make_store ?(core_words = 512) ?(placement = Freelist.Policy.Best_fit)
    ?(replacement = Segmentation.Segment_store.Cyclic) ?max_segment () =
  let clock = Sim.Clock.create () in
  let core = Memstore.Level.make clock Memstore.Device.core ~name:"core" ~words:core_words in
  let backing = Memstore.Level.make clock Memstore.Device.drum ~name:"drum" ~words:16384 in
  Segmentation.Segment_store.create
    { Segmentation.Segment_store.core; backing; placement; replacement; max_segment }

let test_store_fetch_on_first_reference () =
  let t = make_store () in
  let s = Segmentation.Segment_store.define t ~name:"data" ~length:50 () in
  check_bool "absent before touch" false (Segmentation.Segment_store.is_resident t s);
  check_int "no faults yet" 0 (Segmentation.Segment_store.segment_faults t);
  Alcotest.(check int64) "zero filled" 0L (Segmentation.Segment_store.read t s 10);
  check_bool "resident after touch" true (Segmentation.Segment_store.is_resident t s);
  check_int "one fault" 1 (Segmentation.Segment_store.segment_faults t);
  ignore (Segmentation.Segment_store.read t s 20);
  check_int "still one fault" 1 (Segmentation.Segment_store.segment_faults t)

let test_store_data_roundtrip_through_eviction () =
  let t = make_store ~core_words:300 () in
  let a = Segmentation.Segment_store.define t ~length:100 () in
  Segmentation.Segment_store.write t a 42 777L;
  (* Two more 100-word segments overflow the ~300-word core (tag words
     cost a little), forcing [a] out. *)
  let b = Segmentation.Segment_store.define t ~length:100 () in
  let c = Segmentation.Segment_store.define t ~length:100 () in
  ignore (Segmentation.Segment_store.read t b 0);
  ignore (Segmentation.Segment_store.read t c 0);
  check_bool "a evicted" false (Segmentation.Segment_store.is_resident t a);
  check_bool "writeback happened" true (Segmentation.Segment_store.writebacks t >= 1);
  Alcotest.(check int64) "data back from drum" 777L (Segmentation.Segment_store.read t a 42)

let test_store_subscript_violation () =
  let t = make_store () in
  let s = Segmentation.Segment_store.define t ~length:10 () in
  check_bool "trapped" true
    (match Segmentation.Segment_store.read t s 10 with
     | _ -> false
     | exception Segmentation.Descriptor.Subscript_violation _ -> true)

let test_store_max_segment () =
  let t = make_store ~max_segment:1024 () in
  check_bool "B5000 limit enforced" true
    (match Segmentation.Segment_store.define t ~length:1025 () with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_store_delete () =
  let t = make_store () in
  let s = Segmentation.Segment_store.define t ~length:50 () in
  ignore (Segmentation.Segment_store.read t s 0);
  let live_before = Segmentation.Segment_store.core_live_words t in
  Segmentation.Segment_store.delete t s;
  check_bool "space released" true (Segmentation.Segment_store.core_live_words t < live_before);
  check_bool "dead segment rejected" true
    (match Segmentation.Segment_store.read t s 0 with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_store_grow_preserves_content () =
  let t = make_store () in
  let s = Segmentation.Segment_store.define t ~length:20 () in
  Segmentation.Segment_store.write t s 5 123L;
  Segmentation.Segment_store.grow t s ~new_length:60;
  check_int "longer" 60 (Segmentation.Segment_store.length t s);
  Alcotest.(check int64) "content kept" 123L (Segmentation.Segment_store.read t s 5);
  Segmentation.Segment_store.write t s 59 9L;
  Alcotest.(check int64) "new tail usable" 9L (Segmentation.Segment_store.read t s 59)

let test_store_grow_absent_segment () =
  let t = make_store ~core_words:300 () in
  let a = Segmentation.Segment_store.define t ~length:100 () in
  Segmentation.Segment_store.write t a 7 55L;
  let b = Segmentation.Segment_store.define t ~length:100 () in
  let c = Segmentation.Segment_store.define t ~length:100 () in
  ignore (Segmentation.Segment_store.read t b 0);
  ignore (Segmentation.Segment_store.read t c 0);
  check_bool "a absent" false (Segmentation.Segment_store.is_resident t a);
  Segmentation.Segment_store.grow t a ~new_length:150;
  Alcotest.(check int64) "content survives absent grow" 55L (Segmentation.Segment_store.read t a 7)

let test_store_shrink () =
  let t = make_store () in
  let s = Segmentation.Segment_store.define t ~length:50 () in
  Segmentation.Segment_store.write t s 10 3L;
  Segmentation.Segment_store.shrink t s ~new_length:20;
  check_int "shorter" 20 (Segmentation.Segment_store.length t s);
  Alcotest.(check int64) "kept head" 3L (Segmentation.Segment_store.read t s 10);
  check_bool "tail now out of bounds" true
    (match Segmentation.Segment_store.read t s 30 with
     | _ -> false
     | exception Segmentation.Descriptor.Subscript_violation _ -> true)

let test_store_cyclic_replacement_rotates () =
  let t = make_store ~core_words:250 ~replacement:Segmentation.Segment_store.Cyclic () in
  let segs = List.init 4 (fun _ -> Segmentation.Segment_store.define t ~length:100 ()) in
  (* Stream through all four; only ~2 fit, so the rotor must cycle. *)
  List.iter (fun s -> ignore (Segmentation.Segment_store.read t s 0)) segs;
  List.iter (fun s -> ignore (Segmentation.Segment_store.read t s 0)) segs;
  check_bool "evictions happened" true (Segmentation.Segment_store.evictions t >= 4);
  check_int "faults counted" 8 (Segmentation.Segment_store.segment_faults t)

let test_store_rice_iterative_second_chance () =
  let t = make_store ~core_words:250 ~replacement:Segmentation.Segment_store.Rice_iterative () in
  let a = Segmentation.Segment_store.define t ~length:100 () in
  let b = Segmentation.Segment_store.define t ~length:100 () in
  let c = Segmentation.Segment_store.define t ~length:100 () in
  ignore (Segmentation.Segment_store.read t a 0);
  ignore (Segmentation.Segment_store.read t b 0);
  (* Both resident and used.  Fetching c clears use bits on the sweep,
     then evicts; the store must still make room. *)
  ignore (Segmentation.Segment_store.read t c 0);
  check_bool "room was made" true (Segmentation.Segment_store.is_resident t c)

let test_store_too_big_for_core () =
  let t = make_store ~core_words:100 () in
  let s = Segmentation.Segment_store.define t ~length:200 () in
  check_bool "impossible fit fails" true
    (match Segmentation.Segment_store.read t s 0 with
     | _ -> false
     | exception Failure _ -> true)

(* --- Two_level --- *)

let make_two_level ?(tlb_capacity = 0) ?(frames = 8) segments =
  let tlb =
    if tlb_capacity = 0 then None
    else Some (Paging.Tlb.create ~capacity:tlb_capacity Paging.Tlb.Lru_replacement)
  in
  Segmentation.Two_level.create
    { Segmentation.Two_level.page_size = 64; frames; tlb; policy = Paging.Replacement.lru () }
    ~segments

let test_two_level_counts_map_accesses () =
  let t = make_two_level [| 1000 |] and s = 0 in
  for i = 0 to 99 do
    Segmentation.Two_level.touch t ~segment:s ~offset:(i mod 128) ~write:false
  done;
  check_int "two map accesses per reference without TLB" 200
    (Segmentation.Two_level.map_accesses t);
  check_int "two pages faulted" 2 (Segmentation.Two_level.faults t)

let test_two_level_tlb_cuts_overhead () =
  let run tlb_capacity =
    let t = make_two_level ~tlb_capacity [| 1000 |] and s = 0 in
    for i = 0 to 999 do
      Segmentation.Two_level.touch t ~segment:s ~offset:(i mod 128) ~write:false
    done;
    Segmentation.Two_level.map_accesses t
  in
  let without = run 0 and with_tlb = run 8 in
  check_bool "associative memory removes nearly all map accesses" true
    (with_tlb * 10 < without)

let test_two_level_segments_isolated () =
  let t = make_two_level ~frames:4 [| 100; 100 |] and a = 0 and b = 1 in
  Segmentation.Two_level.touch t ~segment:a ~offset:0 ~write:false;
  Segmentation.Two_level.touch t ~segment:b ~offset:0 ~write:false;
  (* Same offset in different segments = different pages. *)
  check_int "two distinct pages" 2 (Segmentation.Two_level.resident_pages t);
  check_bool "bounds per segment" true
    (match Segmentation.Two_level.touch t ~segment:a ~offset:100 ~write:false with
     | () -> false
     | exception Segmentation.Descriptor.Subscript_violation _ -> true);
  check_bool "segment numbers end at the last given" true
    (match Segmentation.Two_level.touch t ~segment:2 ~offset:0 ~write:false with
     | () -> false
     | exception Invalid_argument _ -> true)

let test_two_level_effective_access () =
  let t = make_two_level [| 100 |] in
  Segmentation.Two_level.touch t ~segment:0 ~offset:0 ~write:false;
  (* 1 data access + 2 map accesses, 2 us each: 6 us per reference. *)
  Alcotest.(check (float 1e-9)) "3x word cost" 6.
    (Segmentation.Two_level.effective_access_us t ~word_us:2)

(* Property: under arbitrary define/read/write/grow/delete sequences
   with eviction pressure, every read agrees with a reference model. *)
let segment_store_model_property =
  QCheck.Test.make ~name:"segment store agrees with a model under churn" ~count:30
    QCheck.(list_of_size Gen.(int_range 20 120)
              (pair (int_bound 5) (pair (int_bound 9) (int_bound 200))))
    (fun ops ->
      (* Small core so eviction/refetch happens constantly. *)
      let store = make_store ~core_words:300 () in
      (* Model: per segment, an int64 array mirroring its contents. *)
      let segments = ref [] in  (* (id, contents array ref) *)
      let nth k = List.nth !segments (k mod List.length !segments) in
      let ok = ref true in
      List.iteri
        (fun i (op, (k, magnitude)) ->
          let fresh = Int64.of_int ((i * 104729) + 7) in
          match op with
          | 0 ->
            (* define a new segment, 1..100 words *)
            let length = 1 + (magnitude mod 100) in
            let id = Segmentation.Segment_store.define store ~length () in
            segments := (id, ref (Array.make length 0L)) :: !segments
          | 1 | 2 when !segments <> [] ->
            (* write somewhere in an existing segment *)
            let id, contents = nth k in
            let idx = magnitude mod Array.length !contents in
            Segmentation.Segment_store.write store id idx fresh;
            !contents.(idx) <- fresh
          | 3 | 4 when !segments <> [] ->
            (* read and compare against the model *)
            let id, contents = nth k in
            let idx = magnitude mod Array.length !contents in
            if Segmentation.Segment_store.read store id idx <> !contents.(idx) then
              ok := false
          | 5 when !segments <> [] && List.length !segments > 1 ->
            (* grow: contents preserved, tail zero *)
            let id, contents = nth k in
            let old = Array.length !contents in
            if old < 120 then begin
              let grown = old + 1 + (magnitude mod 30) in
              Segmentation.Segment_store.grow store id ~new_length:grown;
              let bigger = Array.make grown 0L in
              Array.blit !contents 0 bigger 0 old;
              contents := bigger
            end
          | _ -> ())
        ops;
      (* Final sweep: every cell of every segment must match. *)
      List.iter
        (fun (id, contents) ->
          Array.iteri
            (fun idx v ->
              if Segmentation.Segment_store.read store id idx <> v then ok := false)
            !contents)
        !segments;
      !ok)

(* --- Sharing --- *)

let test_sharing_rights_enforced () =
  let store = make_store () in
  let sharing = Segmentation.Sharing.create store in
  let editor = Segmentation.Sharing.add_program sharing ~name:"editor" in
  let compiler = Segmentation.Sharing.add_program sharing ~name:"compiler" in
  let library = Segmentation.Segment_store.define store ~name:"shared-lib" ~length:100 () in
  Segmentation.Sharing.grant sharing editor ~segment:library
    ~rights:[ Segmentation.Sharing.Read; Segmentation.Sharing.Execute ];
  Segmentation.Sharing.grant sharing compiler ~segment:library
    ~rights:[ Segmentation.Sharing.Read; Segmentation.Sharing.Write ];
  (* Both sharers reach the same copy. *)
  Segmentation.Sharing.write sharing compiler library 5 99L;
  Alcotest.(check int64) "editor sees compiler write" 99L
    (Segmentation.Sharing.read sharing editor library 5);
  check_int "one segment fault despite two sharers" 1
    (Segmentation.Segment_store.segment_faults store);
  (* The editor lacks Write. *)
  check_bool "write without right trapped" true
    (match Segmentation.Sharing.write sharing editor library 0 1L with
     | () -> false
     | exception Segmentation.Sharing.Protection_violation v ->
       v.program = "editor" && v.needed = Segmentation.Sharing.Write);
  (* The compiler lacks Execute. *)
  check_bool "execute without right trapped" true
    (match Segmentation.Sharing.fetch_for_execute sharing compiler library with
     | () -> false
     | exception Segmentation.Sharing.Protection_violation _ -> true);
  Alcotest.(check (list string)) "sharers listed" [ "compiler"; "editor" ]
    (List.sort compare (Segmentation.Sharing.sharers sharing ~segment:library))

let test_sharing_not_granted_and_revoke () =
  let store = make_store () in
  let sharing = Segmentation.Sharing.create store in
  let p = Segmentation.Sharing.add_program sharing ~name:"p" in
  let s = Segmentation.Segment_store.define store ~length:10 () in
  check_bool "ungranted access trapped" true
    (match Segmentation.Sharing.read sharing p s 0 with
     | _ -> false
     | exception Segmentation.Sharing.Not_granted _ -> true);
  Segmentation.Sharing.grant sharing p ~segment:s ~rights:[ Segmentation.Sharing.Read ];
  ignore (Segmentation.Sharing.read sharing p s 0);
  Alcotest.(check (list bool)) "rights readable" [ true ]
    (List.map (fun r -> r = Segmentation.Sharing.Read)
       (Segmentation.Sharing.rights sharing p ~segment:s));
  Segmentation.Sharing.revoke sharing p ~segment:s;
  check_bool "revoked access trapped" true
    (match Segmentation.Sharing.read sharing p s 0 with
     | _ -> false
     | exception Segmentation.Sharing.Not_granted _ -> true)

let test_store_space_time_accounting () =
  let t = make_store ~core_words:300 () in
  let a = Segmentation.Segment_store.define t ~length:100 () in
  let b = Segmentation.Segment_store.define t ~length:100 () in
  let c = Segmentation.Segment_store.define t ~length:100 () in
  List.iter
    (fun s ->
      for i = 0 to 20 do
        ignore (Segmentation.Segment_store.read t s i)
      done)
    [ a; b; c; a; b; c ];
  let st = Segmentation.Segment_store.space_time t in
  check_bool "active accrued" true (Metrics.Space_time.active st > 0.);
  check_bool "waiting accrued (drum fetches)" true (Metrics.Space_time.waiting st > 0.);
  (* Drum fetches of 100 words dwarf 2us core reads. *)
  check_bool "fetch-dominated" true (Metrics.Space_time.waiting_fraction st > 0.5);
  check_bool "timeline recorded" true
    (Metrics.Timeline.segments (Segmentation.Segment_store.timeline t) > 0)

(* --- Dual_pager --- *)

let make_dual ?(small_frames = 8) ?(large_frames = 2) segments =
  Segmentation.Dual_pager.create
    { Segmentation.Dual_pager.small_page = 64; large_page = 1024; small_frames; large_frames }
    ~segments

let test_dual_pager_classes () =
  (* 2500-word segment: body = 2 large pages, tail = 452 words of small
     pages. *)
  let d = make_dual [| 2500 |] and s = 0 in
  Segmentation.Dual_pager.touch d ~segment:s ~offset:0 ~write:false;
  Segmentation.Dual_pager.touch d ~segment:s ~offset:1500 ~write:false;
  check_int "two large faults" 2 (Segmentation.Dual_pager.large_faults d);
  check_int "no small faults yet" 0 (Segmentation.Dual_pager.small_faults d);
  Segmentation.Dual_pager.touch d ~segment:s ~offset:2048 ~write:false;
  Segmentation.Dual_pager.touch d ~segment:s ~offset:2400 ~write:false;
  check_int "tail goes to small pages" 2 (Segmentation.Dual_pager.small_faults d);
  check_int "resident words" ((2 * 1024) + (2 * 64)) (Segmentation.Dual_pager.resident_words d);
  (* The last tail page covers words 2432..2495 of which all lie inside
     the 2500-word extent: everything resident is useful here. *)
  check_int "useful words" ((2 * 1024) + (2 * 64))
    (Segmentation.Dual_pager.resident_useful_words d)

let test_dual_pager_tail_waste_visible () =
  (* A 10-word segment holds one small page, 54 words of it waste; the
     small pages of a 1100-word segment after it (76-word tail) come
     next in the small pool's keys, and its second one holds 12 useful
     words. *)
  let d = make_dual [| 10; 1100 |] in
  Segmentation.Dual_pager.touch d ~segment:0 ~offset:5 ~write:false;
  check_int "one small page held" 64 (Segmentation.Dual_pager.resident_words d);
  check_int "only the extent useful" 10 (Segmentation.Dual_pager.resident_useful_words d);
  Segmentation.Dual_pager.touch d ~segment:1 ~offset:1099 ~write:false;
  check_int "the next segment's tail" 22 (Segmentation.Dual_pager.resident_useful_words d)

let test_dual_pager_pools_replace_independently () =
  let d = make_dual ~small_frames:2 ~large_frames:1 [| 4096 |] and s = 0 in
  (* Two large pages through one large frame: each touch faults. *)
  Segmentation.Dual_pager.touch d ~segment:s ~offset:0 ~write:false;
  Segmentation.Dual_pager.touch d ~segment:s ~offset:1024 ~write:false;
  Segmentation.Dual_pager.touch d ~segment:s ~offset:0 ~write:false;
  check_int "large pool thrashes" 3 (Segmentation.Dual_pager.large_faults d);
  check_int "small pool untouched" 0 (Segmentation.Dual_pager.small_faults d)

let test_dual_pager_bounds () =
  let d = make_dual [| 100 |] and s = 0 in
  check_bool "subscript trapped" true
    (match Segmentation.Dual_pager.touch d ~segment:s ~offset:100 ~write:false with
     | () -> false
     | exception Segmentation.Descriptor.Subscript_violation _ -> true)

let () =
  Alcotest.run "segmentation"
    [
      ( "descriptor",
        [
          Alcotest.test_case "prt access" `Quick test_prt_access;
          Alcotest.test_case "subscript check" `Quick test_prt_subscript_check;
        ] );
      ( "codeword",
        [
          Alcotest.test_case "indexing" `Quick test_codeword_indexing;
          Alcotest.test_case "absent" `Quick test_codeword_absent;
        ] );
      ( "rice_chain",
        [
          Alcotest.test_case "sequential then chain" `Quick test_rice_sequential_then_chain;
          Alcotest.test_case "leftover replaces" `Quick test_rice_leftover_replaces_block;
          Alcotest.test_case "combine adjacent" `Quick test_rice_combine_adjacent;
          Alcotest.test_case "double free" `Quick test_rice_double_free;
          QCheck_alcotest.to_alcotest rice_random_ops;
          QCheck_alcotest.to_alcotest rice_matches_model;
        ] );
      ( "segment_store",
        [
          Alcotest.test_case "fetch on first reference" `Quick test_store_fetch_on_first_reference;
          Alcotest.test_case "roundtrip via eviction" `Quick test_store_data_roundtrip_through_eviction;
          Alcotest.test_case "subscript violation" `Quick test_store_subscript_violation;
          Alcotest.test_case "max segment" `Quick test_store_max_segment;
          Alcotest.test_case "delete" `Quick test_store_delete;
          Alcotest.test_case "grow preserves content" `Quick test_store_grow_preserves_content;
          Alcotest.test_case "grow absent segment" `Quick test_store_grow_absent_segment;
          Alcotest.test_case "shrink" `Quick test_store_shrink;
          Alcotest.test_case "cyclic replacement" `Quick test_store_cyclic_replacement_rotates;
          Alcotest.test_case "rice iterative" `Quick test_store_rice_iterative_second_chance;
          Alcotest.test_case "too big for core" `Quick test_store_too_big_for_core;
          Alcotest.test_case "space-time accounting" `Quick test_store_space_time_accounting;
        ] );
      ( "model",
        [ QCheck_alcotest.to_alcotest segment_store_model_property ] );
      ( "sharing",
        [
          Alcotest.test_case "rights enforced" `Quick test_sharing_rights_enforced;
          Alcotest.test_case "grant/revoke" `Quick test_sharing_not_granted_and_revoke;
        ] );
      ( "dual_pager",
        [
          Alcotest.test_case "classes" `Quick test_dual_pager_classes;
          Alcotest.test_case "tail waste" `Quick test_dual_pager_tail_waste_visible;
          Alcotest.test_case "independent pools" `Quick test_dual_pager_pools_replace_independently;
          Alcotest.test_case "bounds" `Quick test_dual_pager_bounds;
        ] );
      ( "two_level",
        [
          Alcotest.test_case "map access counting" `Quick test_two_level_counts_map_accesses;
          Alcotest.test_case "tlb cuts overhead" `Quick test_two_level_tlb_cuts_overhead;
          Alcotest.test_case "segments isolated" `Quick test_two_level_segments_isolated;
          Alcotest.test_case "effective access" `Quick test_two_level_effective_access;
        ] );
    ]
