(* Tests for the paging library: page tables, resident sets, TLB, replacement
   policies, the fault simulator and the timed demand engine. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Page_table --- *)

let test_page_table_lifecycle () =
  let pt = Paging.Page_table.create ~pages:8 in
  check_bool "absent" true (Paging.Page_table.frame_of pt 3 = None);
  Paging.Page_table.install pt ~page:3 ~frame:1;
  check_bool "present" true (Paging.Page_table.frame_of pt 3 = Some 1);
  Paging.Page_table.mark_modified pt ~page:3;
  check_bool "modified" true (Paging.Page_table.modified pt ~page:3);
  Paging.Page_table.evict pt ~page:3;
  check_bool "gone" true (Paging.Page_table.frame_of pt 3 = None);
  Paging.Page_table.install pt ~page:3 ~frame:0;
  check_bool "install clears modified" false (Paging.Page_table.modified pt ~page:3)

let test_page_table_bounds () =
  let pt = Paging.Page_table.create ~pages:4 in
  check_bool "out of range" true
    (match Paging.Page_table.frame_of pt 4 with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_page_table_lock () =
  let pt = Paging.Page_table.create ~pages:4 in
  Paging.Page_table.install pt ~page:0 ~frame:0;
  Paging.Page_table.lock pt ~page:0;
  check_bool "locked eviction rejected" true
    (match Paging.Page_table.evict pt ~page:0 with
     | () -> false
     | exception Invalid_argument _ -> true);
  Paging.Page_table.unlock pt ~page:0;
  Paging.Page_table.evict pt ~page:0;
  check_bool "evictable after unlock" true (Paging.Page_table.frame_of pt 0 = None)

(* --- Resident --- *)

let raises_invalid f = match f () with () -> false | exception Invalid_argument _ -> true

(* Demand's free frames: taken lowest first, returned in any order. *)
let test_resident_lowest_first () =
  let free = Paging.Resident.create ~capacity:3 in
  List.iter (Paging.Resident.add free) [ 2; 0; 1 ];
  check_bool "lowest free" true (Paging.Resident.lowest free = Some 0);
  Paging.Resident.remove free 0;
  check_bool "next free" true (Paging.Resident.lowest free = Some 1);
  check_int "free count" 2 (Paging.Resident.length free);
  check_bool "members" true (Paging.Resident.mem free 2);
  check_bool "taken" false (Paging.Resident.mem free 0);
  check_bool "double take" true (raises_invalid (fun () -> Paging.Resident.remove free 0));
  check_bool "double release" true (raises_invalid (fun () -> Paging.Resident.add free 1));
  Paging.Resident.add free 0;
  check_bool "over capacity" true (raises_invalid (fun () -> Paging.Resident.add free 7));
  let all = Paging.Resident.elements free in
  Alcotest.(check (array int)) "ascending" [| 0; 1; 2 |] all;
  check_bool "lent when full" true (all == Paging.Resident.elements free);
  Alcotest.(check (array int)) "filtered copy" [| 0; 2 |]
    (Paging.Resident.filter free (fun f -> f <> 1));
  Paging.Resident.remove free 2;
  Alcotest.(check (array int)) "copy when not full" [| 0; 1 |] (Paging.Resident.elements free)

(* Every operation of a set of [capacity], [replace] included, against a
   sorted list: the same answers, the same members after each operation,
   and an [Invalid_argument] exactly when the list says the operation is
   refused, after which the set is unchanged. *)
type resident_op = Add of int | Remove of int | Replace of int * int | Mem of int

let show_resident_op = function
  | Add x -> Printf.sprintf "add %d" x
  | Remove x -> Printf.sprintf "remove %d" x
  | Replace (v, x) -> Printf.sprintf "replace ~victim:%d %d" v x
  | Mem x -> Printf.sprintf "mem %d" x

let resident_model_property =
  let op =
    QCheck.Gen.(
      let x = int_bound 15 in
      frequency
        [
          (3, map (fun x -> Add x) x);
          (2, map (fun x -> Remove x) x);
          (4, map2 (fun v x -> Replace (v, x)) x x);
          (1, map (fun x -> Mem x) x);
        ])
  in
  QCheck.Test.make ~name:"resident: sorted-list model" ~count:300
    (QCheck.make
       ~print:(fun (c, ops) ->
         Printf.sprintf "capacity %d: %s" c (String.concat "; " (List.map show_resident_op ops)))
       QCheck.Gen.(pair (int_range 1 10) (list_size (int_range 1 60) op)))
    (fun (capacity, ops) ->
      let t = Paging.Resident.create ~capacity in
      let model = ref [] in
      let insert x l = List.sort compare (x :: l) in
      let step op =
        let refused, next =
          match op with
          | Add x ->
            let refused = List.length !model = capacity || List.mem x !model in
            (refused, fun () -> Paging.Resident.add t x; insert x !model)
          | Remove x ->
            (not (List.mem x !model), fun () -> Paging.Resident.remove t x; List.filter (( <> ) x) !model)
          | Replace (v, x) ->
            ( (not (List.mem v !model)) || (x <> v && List.mem x !model),
              fun () ->
                Paging.Resident.replace t ~victim:v x;
                insert x (List.filter (( <> ) v) !model) )
          | Mem x ->
            if Paging.Resident.mem t x <> List.mem x !model then
              QCheck.Test.fail_reportf "%s answered wrong" (show_resident_op op);
            (false, fun () -> !model)
        in
        (match next () with
         | l ->
           if refused then QCheck.Test.fail_reportf "%s was not refused" (show_resident_op op);
           model := l
         | exception Invalid_argument _ ->
           if not refused then QCheck.Test.fail_reportf "%s was refused" (show_resident_op op));
        let members = Array.to_list (Paging.Resident.elements t) in
        if members <> !model
           || Paging.Resident.length t <> List.length !model
           || Paging.Resident.lowest t <> (match !model with [] -> None | x :: _ -> Some x)
        then
          QCheck.Test.fail_reportf "after %s: [%s], model [%s]" (show_resident_op op)
            (String.concat " " (List.map string_of_int members))
            (String.concat " " (List.map string_of_int !model))
      in
      List.iter step ops;
      true)

(* --- Tlb --- *)

let test_tlb_hit_miss () =
  let tlb = Paging.Tlb.create ~capacity:2 Paging.Tlb.Lru_replacement in
  check_bool "cold miss" true (Paging.Tlb.lookup tlb 5 = None);
  Paging.Tlb.insert tlb ~key:5 ~value:1;
  check_bool "hit" true (Paging.Tlb.lookup tlb 5 = Some 1);
  check_int "hits" 1 (Paging.Tlb.hits tlb);
  check_int "misses" 1 (Paging.Tlb.misses tlb);
  Alcotest.(check (float 1e-9)) "ratio" 0.5 (Paging.Tlb.hit_ratio tlb)

let test_tlb_lru_eviction () =
  let tlb = Paging.Tlb.create ~capacity:2 Paging.Tlb.Lru_replacement in
  Paging.Tlb.insert tlb ~key:1 ~value:10;
  Paging.Tlb.insert tlb ~key:2 ~value:20;
  ignore (Paging.Tlb.lookup tlb 1);  (* make 2 the LRU entry *)
  Paging.Tlb.insert tlb ~key:3 ~value:30;
  check_bool "1 survives" true (Paging.Tlb.lookup tlb 1 = Some 10);
  check_bool "2 evicted" true (Paging.Tlb.lookup tlb 2 = None);
  check_bool "3 present" true (Paging.Tlb.lookup tlb 3 = Some 30)

let test_tlb_fifo_eviction () =
  let tlb = Paging.Tlb.create ~capacity:2 Paging.Tlb.Fifo_replacement in
  Paging.Tlb.insert tlb ~key:1 ~value:10;
  Paging.Tlb.insert tlb ~key:2 ~value:20;
  ignore (Paging.Tlb.lookup tlb 1);  (* FIFO ignores recency *)
  Paging.Tlb.insert tlb ~key:3 ~value:30;
  check_bool "1 evicted despite recency" true (Paging.Tlb.lookup tlb 1 = None);
  check_bool "2 survives" true (Paging.Tlb.lookup tlb 2 = Some 20)

let test_tlb_invalidate_flush_zero () =
  let tlb = Paging.Tlb.create ~capacity:4 Paging.Tlb.Lru_replacement in
  Paging.Tlb.insert tlb ~key:1 ~value:10;
  Paging.Tlb.insert tlb ~key:2 ~value:20;
  Paging.Tlb.invalidate tlb ~key:1;
  check_bool "invalidated" true (Paging.Tlb.lookup tlb 1 = None);
  Paging.Tlb.flush tlb;
  check_bool "flushed" true (Paging.Tlb.lookup tlb 2 = None);
  let none = Paging.Tlb.create ~capacity:0 Paging.Tlb.Lru_replacement in
  Paging.Tlb.insert none ~key:1 ~value:1;
  check_bool "zero-capacity never hits" true (Paging.Tlb.lookup none 1 = None)

(* Property: a TLB big enough for the key set never misses after each
   key's first probe-and-insert. *)
let tlb_capacity_covers_property =
  QCheck.Test.make ~name:"TLB with capacity >= distinct keys misses once per key" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 60) (int_bound 15))
    (fun keys ->
      let tlb = Paging.Tlb.create ~capacity:16 Paging.Tlb.Lru_replacement in
      List.iter
        (fun k ->
          match Paging.Tlb.lookup tlb k with
          | Some _ -> ()
          | None -> Paging.Tlb.insert tlb ~key:k ~value:k)
        keys;
      let distinct = List.length (List.sort_uniq compare keys) in
      Paging.Tlb.misses tlb = distinct
      && Paging.Tlb.hits tlb = List.length keys - distinct)

(* --- Fault_sim + Replacement: known reference strings --- *)

let belady = Workload.Trace.belady_anomaly_trace

let faults ~frames policy trace =
  (Paging.Fault_sim.run ~frames ~policy trace).Paging.Fault_sim.faults

let test_fifo_known_counts () =
  check_int "FIFO/3" 9 (faults ~frames:3 (Paging.Replacement.fifo ()) belady);
  check_int "FIFO/4" 10 (faults ~frames:4 (Paging.Replacement.fifo ()) belady)

let test_belady_anomaly () =
  let f3 = faults ~frames:3 (Paging.Replacement.fifo ()) belady in
  let f4 = faults ~frames:4 (Paging.Replacement.fifo ()) belady in
  check_bool "more frames, more faults" true (f4 > f3)

let test_lru_known_counts () =
  check_int "LRU/3" 10 (faults ~frames:3 (Paging.Replacement.lru ()) belady);
  check_int "LRU/4" 8 (faults ~frames:4 (Paging.Replacement.lru ()) belady)

let test_opt_known_counts () =
  check_int "OPT/3" 7 (faults ~frames:3 (Paging.Replacement.opt belady) belady);
  check_int "OPT/4" 6 (faults ~frames:4 (Paging.Replacement.opt belady) belady)

let test_lru_loop_thrash_and_fit () =
  let trace = Workload.Trace.loop ~length:400 ~extent:100 ~working_set:4 in
  (* Working set fits: only the 4 cold faults. *)
  check_int "fits" 4 (faults ~frames:4 (Paging.Replacement.lru ()) trace);
  (* One frame short: LRU faults on every reference of a cyclic sweep. *)
  check_int "thrashes" 400 (faults ~frames:3 (Paging.Replacement.lru ()) trace)

let test_cold_and_eviction_accounting () =
  let r = Paging.Fault_sim.run ~frames:3 ~policy:(Paging.Replacement.fifo ()) belady in
  check_int "refs" 12 r.Paging.Fault_sim.refs;
  check_int "cold = distinct pages" 5 r.Paging.Fault_sim.cold;
  check_int "evictions = faults - frames" (r.Paging.Fault_sim.faults - 3)
    r.Paging.Fault_sim.evictions

let test_all_policies_run () =
  let rng = Sim.Rng.create 99 in
  let trace =
    Workload.Trace.working_set_phases (Sim.Rng.split rng) ~length:2000 ~extent:64
      ~set_size:8 ~phase_length:250 ~locality:0.9
  in
  List.iter
    (fun policy ->
      let r = Paging.Fault_sim.run ~frames:12 ~policy trace in
      check_bool
        (Printf.sprintf "%s fault bounds" policy.Paging.Replacement.name)
        true
        (r.Paging.Fault_sim.faults >= r.Paging.Fault_sim.cold
        && r.Paging.Fault_sim.faults <= r.Paging.Fault_sim.refs))
    (List.map
       (fun spec -> Paging.Spec.instantiate spec ~rng ~trace:None)
       Paging.Spec.all_practical)

(* Property: LRU obeys the stack-inclusion property (faults monotone
   non-increasing in memory size), which FIFO famously violates. *)
let lru_stack_property =
  QCheck.Test.make ~name:"LRU faults are monotone in frames" ~count:60
    QCheck.(pair small_int (list_of_size Gen.(int_range 10 120) (int_bound 12)))
    (fun (_, refs) ->
      let trace = Array.of_list refs in
      let rec check prev frames =
        if frames > 6 then true
        else begin
          let f = faults ~frames (Paging.Replacement.lru ()) trace in
          f <= prev && check f (frames + 1)
        end
      in
      check max_int 1)

(* Property: no practical policy beats Belady's OPT. *)
let opt_optimality =
  QCheck.Test.make ~name:"OPT lower-bounds every policy" ~count:60
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_range 10 120) (int_bound 12)))
    (fun (frames, refs) ->
      let trace = Array.of_list refs in
      let opt_faults = faults ~frames (Paging.Replacement.opt trace) trace in
      let rng = Sim.Rng.create 7 in
      List.for_all
        (fun policy -> faults ~frames policy trace >= opt_faults)
        (List.map
           (fun spec -> Paging.Spec.instantiate spec ~rng ~trace:None)
           Paging.Spec.all_practical))

(* CLOCK driven through callbacks, with evictions that are not the
   victim the hand just returned, as Demand's advice and Multiprog's
   shed and abort paths make them: a page still ahead of the hand, one
   the hand has passed, and one loaded since the last wrap (which waits
   for the next wrap).  Victims as the list-based ring chose them. *)
let test_clock_hand_vs_evictions () =
  let c = Paging.Replacement.clock_sweep () in
  let load p = c.Paging.Replacement.on_load ~page:p in
  let evict p = c.Paging.Replacement.on_evict ~page:p in
  let use p = c.Paging.Replacement.on_reference ~page:p ~write:false in
  let victim cands = c.Paging.Replacement.choose_victim ~candidates:cands in
  List.iter load [ 1; 2; 3; 4; 5; 6 ];
  use 1;
  use 2;
  (* wrap; 1 and 2 lose their bits, 3 goes; the hand holds [4; 5; 6] *)
  check_int "first sweep" 3 (victim [| 1; 2; 3; 4; 5; 6 |]);
  evict 3;
  List.iter load [ 7; 8 ];
  evict 5;  (* ahead of the hand *)
  evict 1;  (* behind the hand *)
  evict 8;  (* loaded since the wrap *)
  use 4;
  use 6;
  (* the hand clears 4 and 6, then wraps: 7 waited for it *)
  check_int "wraps after the hand" 2 (victim [| 2; 4; 6; 7 |]);
  evict 2;
  check_int "bits cleared" 4 (victim [| 4; 6; 7 |]);
  evict 4;
  check_int "hand moves on" 6 (victim [| 6; 7 |]);
  evict 6;
  List.iter load [ 9; 10 ];
  (* 7 is not a candidate (locked): passed over twice *)
  check_int "skips a non-candidate" 9 (victim [| 9; 10 |]);
  evict 9;
  use 7;
  use 10;
  check_int "full sweep" 10 (victim [| 7; 10 |])

(* ATLAS measures T, a page's previous period of inactivity, from its
   load when the load comes first (page 0, loaded at time 0), and sets
   T = 0 at a page's first reference (page 2): "never seen" and "last
   used at time 0" stay apart.  Either slip makes page 2 the victim. *)
let test_atlas_first_use () =
  let a = Paging.Replacement.atlas_learning () in
  a.Paging.Replacement.on_load ~page:0;
  List.iter (fun p -> a.Paging.Replacement.on_reference ~page:p ~write:false) [ 1; 1; 1; 0; 2 ];
  (* (t, T): page 0 (1, 4), page 1 (2, 1), page 2 (0, 0); none is out
     of use, and page 0 has the largest T - t *)
  check_int "largest T - t" 0 (a.Paging.Replacement.choose_victim ~candidates:[| 0; 1; 2 |])

(* --- Every policy against the reference ---

   Each policy is driven by hand, as an engine would drive it, beside
   its reference in Fault_path_reference: references with writes, faults
   that fill a free frame or evict, prefetches that load a page without
   a reference, and evictions outside any victim choice (Demand's
   advice, Multiprog's aborts).  A victim choice is given the resident
   set, or, when the step pins some pages, a strict subset of it.  Both
   sides must choose the same victim every time, and their generators
   must then give the same next 100 draws. *)

module Ref = Fault_path_reference

type policy_step =
  | Touch of int * bool * int  (* page, write, pinned: bit i pins resident i *)
  | Prefetch of int
  | Drop of int  (* the resident page at this index, mod the count *)

let show_policy_step = function
  | Touch (p, w, pin) -> Printf.sprintf "%s %d pin %x" (if w then "write" else "read") p pin
  | Prefetch p -> Printf.sprintf "prefetch %d" p
  | Drop i -> Printf.sprintf "drop #%d" i

let policy_names = [| "FIFO"; "LRU"; "CLOCK"; "RANDOM"; "NRU"; "LFU"; "ATLAS"; "M44"; "WS(64)"; "OPT" |]

(* Policy [k] on each side, each drawing from its own side's generator. *)
let policy_pair k ~rng ~reference_rng trace =
  let module P = Paging.Replacement in
  let module Q = Ref.Replacement in
  match k with
  | 0 -> (P.fifo (), Q.fifo ())
  | 1 -> (P.lru (), Q.lru ())
  | 2 -> (P.clock_sweep (), Q.clock_sweep ())
  | 3 -> (P.random rng, Q.random reference_rng)
  | 4 -> (P.nru rng, Q.nru reference_rng)
  | 5 -> (P.lfu (), Q.lfu ())
  | 6 -> (P.atlas_learning (), Q.atlas_learning ())
  | 7 -> (P.m44 rng, Q.m44 reference_rng)
  | 8 -> (P.working_set ~tau:64, Q.working_set ~tau:64)
  | _ -> (P.opt trace, Q.opt trace)

(* Pages are drawn from [0, span]: a span near the frame count makes
   most references hits, which sets the use bits that CLOCK and NRU
   clear, and a wide one makes most of them faults.  Half the choices
   pin nothing; the rest pin each resident page with probability 1/2 or
   3/4, so that few candidates remain, which is when CLOCK's hand can
   run out of budget. *)
let policies_match_reference =
  let step span =
    QCheck.Gen.(
      let page = int_bound span in
      frequency
        [
          ( 8,
            map3
              (fun p w pin -> Touch (p, w, pin))
              page bool
              (frequency
                 [
                   (2, return 0);
                   (1, int_bound 0xFFFFF);
                   (1, map2 ( lor ) (int_bound 0xFFFFF) (int_bound 0xFFFFF));
                 ])
          );
          (1, map (fun p -> Prefetch p) page);
          (1, map (fun i -> Drop i) (int_bound 7));
        ])
  in
  QCheck.Test.make ~name:"every policy chooses as its reference" ~count:1000
    (QCheck.make
       ~print:(fun (seed, frames, steps) ->
         Printf.sprintf "seed %d, %d frames: %s" seed frames
           (String.concat "; " (List.map show_policy_step steps)))
       QCheck.Gen.(
         triple (int_bound 1000) (int_range 1 20) (int_range 1 24)
         >>= fun (seed, frames, span) ->
         map (fun steps -> (seed, frames, steps)) (list_size (int_range 1 200) (step span))))
    (fun (seed, frames, steps) ->
      let trace =
        Array.of_list (List.filter_map (function Touch (p, _, _) -> Some p | _ -> None) steps)
      in
      for k = 0 to Array.length policy_names - 1 do
        let rng = Sim.Rng.create seed and reference_rng = Ref.Rng.create seed in
        let p, q = policy_pair k ~rng ~reference_rng trace in
        let resident = ref [] in
        let load page =
          resident := List.sort compare (page :: !resident);
          p.Paging.Replacement.on_load ~page;
          q.Ref.Replacement.on_load ~page
        in
        let evict page =
          resident := List.filter (( <> ) page) !resident;
          p.Paging.Replacement.on_evict ~page;
          q.Ref.Replacement.on_evict ~page
        in
        List.iteri
          (fun i step ->
            match step with
            | Touch (page, write, pin) ->
              p.Paging.Replacement.on_reference ~page ~write;
              q.Ref.Replacement.on_reference ~page ~write;
              if not (List.mem page !resident) then begin
                if List.length !resident >= frames then begin
                  let unpinned = List.filteri (fun j _ -> pin land (1 lsl j) = 0) !resident in
                  let candidates =
                    Array.of_list (if unpinned = [] then !resident else unpinned)
                  in
                  let v = p.Paging.Replacement.choose_victim ~candidates:(Array.copy candidates) in
                  let w = q.Ref.Replacement.choose_victim ~candidates:(Array.copy candidates) in
                  if v <> w || not (Array.mem v candidates) then
                    QCheck.Test.fail_reportf "%s, step %d: victim %d, reference %d"
                      policy_names.(k) i v w;
                  evict v
                end;
                load page
              end
            | Prefetch page ->
              if List.length !resident < frames && not (List.mem page !resident) then load page
            | Drop j ->
              (match !resident with
               | [] -> ()
               | l -> evict (List.nth l (j mod List.length l))))
          steps;
        for d = 1 to 100 do
          if Sim.Rng.bits64 rng <> Ref.Rng.bits64 reference_rng then
            QCheck.Test.fail_reportf "%s: draw %d after the run differs" policy_names.(k) d
        done
      done;
      true)

(* --- The fault path makes no garbage ---

   [Gc.minor_words] is read, never set: it is the runtime's exact count
   of words allocated on the minor heap.  [Gc.quick_stat], which
   [Obs.Prof] reads, counts them only at each minor collection. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* A run over ten copies of a 2,000-reference trace allocates what a run
   over one copy does, give or take a few words: no reference, fault or
   victim choice allocates.  OPT is left out, because it indexes its
   whole trace when it is built. *)
let test_fault_path_allocates_nothing () =
  let short =
    Workload.Trace.working_set_phases (Sim.Rng.create 5) ~length:2_000 ~extent:96 ~set_size:24
      ~phase_length:200 ~locality:0.9
  in
  let long = Array.concat (List.init 10 (fun _ -> short)) in
  List.iter
    (fun spec ->
      let run trace =
        minor_words (fun () ->
            let policy = Paging.Spec.instantiate spec ~rng:(Sim.Rng.create 1) ~trace:None in
            let r = Paging.Fault_sim.run ~frames:16 ~policy trace in
            assert (r.Paging.Fault_sim.evictions > 0))
      in
      let a = run short and b = run long in
      check_bool
        (Printf.sprintf "%s: %.0f words over 2,000 references, %.0f over 20,000"
           (Paging.Spec.to_string spec) a b)
        true
        (Float.abs (b -. a) <= 8.))
    Paging.Spec.all_practical

(* A policy that checks the key contract at every call and delegates
   to LRU: every key it is given lies in [0, keys), the engine's page
   count, and at every victim choice the candidates are strictly
   ascending.  With [frames], the candidates must also be exactly the
   resident set modelled from on_load / on_evict. *)
let contract_policy ?frames ~keys () =
  let inner = Paging.Replacement.lru () in
  let resident = Hashtbl.create 16 and ok = ref true and calls = ref 0 in
  let check page = if page < 0 || page >= keys then ok := false in
  let choose_victim ~candidates =
    incr calls;
    Array.iter check candidates;
    let n = Array.length candidates in
    let ascending = ref (n > 0) in
    for i = 1 to n - 1 do
      if candidates.(i - 1) >= candidates.(i) then ascending := false
    done;
    let is_resident =
      match frames with
      | None -> true
      | Some f ->
        n = f && n = Hashtbl.length resident
        && Array.for_all (Hashtbl.mem resident) candidates
    in
    if not (!ascending && is_resident) then ok := false;
    inner.Paging.Replacement.choose_victim ~candidates
  in
  let policy =
    {
      inner with
      Paging.Replacement.on_reference =
        (fun ~page ~write ->
          check page;
          inner.Paging.Replacement.on_reference ~page ~write);
      on_load =
        (fun ~page ->
          check page;
          Hashtbl.replace resident page ();
          inner.Paging.Replacement.on_load ~page);
      on_evict =
        (fun ~page ->
          check page;
          Hashtbl.remove resident page;
          inner.Paging.Replacement.on_evict ~page);
      choose_victim;
    }
  in
  (policy, ok, calls)

(* --- Oracles: answers computed independently of the engines --- *)

(* Mattson et al.'s stack distance: a reference faults under LRU with
   [frames] frames iff its page is deeper than [frames] in the LRU
   stack (first references are infinitely deep). *)
let stack_distance_faults trace ~frames =
  let stack = ref [] and faults = ref 0 in
  Array.iter
    (fun p ->
      let rec depth d = function
        | [] -> max_int
        | q :: rest -> if q = p then d else depth (d + 1) rest
      in
      if depth 1 !stack > frames then incr faults;
      stack := p :: List.filter (fun q -> q <> p) !stack)
    trace;
  !faults

let lru_stack_distance_oracle =
  QCheck.Test.make ~name:"LRU = stack distance" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 300) (int_bound 19))
    (fun refs ->
      let trace = Array.of_list refs in
      let extent = Workload.Trace.extent trace in
      List.for_all
        (fun frames ->
          faults ~frames (Paging.Replacement.lru ()) trace
          = stack_distance_faults trace ~frames)
        (List.init (extent + 1) (fun i -> i + 1)))

(* The fewest faults any eviction sequence achieves, by trying every
   resident page at every eviction (memoized on position and resident
   set). *)
let exhaustive_min_faults trace ~frames =
  let n = Array.length trace in
  let memo = Hashtbl.create 256 in
  let rec go i resident =
    if i = n then 0
    else
      match Hashtbl.find_opt memo (i, resident) with
      | Some f -> f
      | None ->
        let p = trace.(i) in
        let load rest = go (i + 1) (List.sort compare (p :: rest)) in
        let f =
          if List.mem p resident then go (i + 1) resident
          else if List.length resident < frames then 1 + load resident
          else
            1
            + List.fold_left
                (fun best v -> min best (load (List.filter (fun q -> q <> v) resident)))
                max_int resident
        in
        Hashtbl.replace memo (i, resident) f;
        f
  in
  go 0 []

let opt_exhaustive_oracle =
  QCheck.Test.make ~name:"OPT = exhaustive minimum" ~count:100
    QCheck.(pair (int_range 1 3) (list_of_size Gen.(int_range 1 14) (int_bound 5)))
    (fun (frames, refs) ->
      let trace = Array.of_list refs in
      faults ~frames (Paging.Replacement.opt trace) trace
      = exhaustive_min_faults trace ~frames)

(* Hierarchy's faults with a flat drum; the timings do not matter. *)
let hierarchy_faults ~fast_frames ~bulk_frames promotion trace =
  let h =
    Paging.Hierarchy.create
      {
        Paging.Hierarchy.fast_frames;
        bulk_frames;
        fast_us = 1;
        bulk_us = 2;
        fetch_us = 100;
        promotion;
      }
  in
  Paging.Hierarchy.run h trace;
  Paging.Hierarchy.faults h

(* Under Never the fast level stays empty: bulk core is plain LRU. *)
let hierarchy_never_oracle =
  QCheck.Test.make ~name:"Hierarchy Never = stack distance at bulk_frames" ~count:100
    QCheck.(
      triple (int_range 0 4) (int_range 1 6)
        (list_of_size Gen.(int_range 1 200) (int_bound 15)))
    (fun (fast_frames, bulk_frames, refs) ->
      let trace = Array.of_list refs in
      hierarchy_faults ~fast_frames ~bulk_frames Paging.Hierarchy.Never trace
      = stack_distance_faults trace ~frames:bulk_frames)

(* Under Always every touched page moves to fast core and fast core's
   LRU page moves down, so the two levels hold one LRU stack: fast core
   its top, bulk core the rest. *)
let hierarchy_always_oracle =
  QCheck.Test.make ~name:"Hierarchy Always = stack distance at fast + bulk" ~count:100
    QCheck.(
      triple (int_range 1 4) (int_range 1 6)
        (list_of_size Gen.(int_range 1 200) (int_bound 15)))
    (fun (fast_frames, bulk_frames, refs) ->
      let trace = Array.of_list refs in
      hierarchy_faults ~fast_frames ~bulk_frames Paging.Hierarchy.Always trace
      = stack_distance_faults trace ~frames:(fast_frames + bulk_frames))

(* Segments of 1..40 words and (segment, offset) references, drawn
   large; [in_range] reduces each reference into its segment. *)
let segmented_refs =
  QCheck.(
    pair
      (list_of_size Gen.(int_range 1 4) (int_range 1 40))
      (list_of_size Gen.(int_range 1 200) (pair small_nat small_nat)))

let in_range (lengths, refs) =
  let lengths = Array.of_list lengths in
  let reduce (s, o) =
    let s = s mod Array.length lengths in
    (s, o mod lengths.(s))
  in
  (lengths, List.map reduce refs)

(* Each Dual_pager pool is LRU over its own pages: a reference falls in
   the large pool when it lies in its segment's whole large pages.  With
   no frames, a pool faults on every reference (stack distance at 0). *)
let dual_pager_oracle =
  QCheck.Test.make ~name:"Dual_pager pools = stack distance per pool" ~count:100
    QCheck.(pair (pair (int_range 0 3) (int_range 0 3)) segmented_refs)
    (fun ((small_frames, large_frames), segmented) ->
      let module D = Segmentation.Dual_pager in
      let lengths, refs = in_range segmented in
      let small_page = 4 and large_page = 16 in
      let d = D.create { D.small_page; large_page; small_frames; large_frames } ~segments:lengths in
      List.iter (fun (segment, offset) -> D.touch d ~segment ~offset ~write:false) refs;
      let body s = lengths.(s) / large_page * large_page in
      let large, small = List.partition (fun (s, o) -> o < body s) refs in
      let keys page l = Array.of_list (List.map (fun (s, o) -> (s * 100) + page s o) l) in
      let large = keys (fun _ o -> o / large_page) large
      and small = keys (fun s o -> (o - body s) / small_page) small in
      D.large_faults d = stack_distance_faults large ~frames:large_frames
      && D.small_faults d = stack_distance_faults small ~frames:small_frames
      && (large_frames > 0 || D.large_faults d = Array.length large)
      && (small_frames > 0 || D.small_faults d = Array.length small))

(* Two_level without a TLB is Fault_sim over (segment, page) pairs: the
   same faults as Fault_sim on the touched pairs renamed 0, 1, ... in
   their own order, which keeps every policy's view of its candidates. *)
let two_level_oracle =
  QCheck.Test.make ~name:"Two_level = Fault_sim on dense keys" ~count:60
    QCheck.(triple (int_range 1 6) small_nat segmented_refs)
    (fun (frames, seed, segmented) ->
      let module T = Segmentation.Two_level in
      let lengths, refs = in_range segmented in
      let page_size = 4 in
      let pages = List.map (fun (s, o) -> (s, o / page_size)) refs in
      let keys = Array.of_list (List.sort_uniq compare pages) in
      let rec rank p i = if keys.(i) = p then i else rank p (i + 1) in
      let dense = Array.of_list (List.map (fun p -> rank p 0) pages) in
      List.for_all
        (fun spec ->
          let policy () = Paging.Spec.instantiate spec ~rng:(Sim.Rng.create seed) ~trace:None in
          let t =
            T.create { T.page_size; frames; tlb = None; policy = policy () } ~segments:lengths
          in
          List.iter (fun (segment, offset) -> T.touch t ~segment ~offset ~write:false) refs;
          T.faults t = (Paging.Fault_sim.run ~frames ~policy:(policy ()) dense).faults)
        Paging.Spec.all_practical)

(* --- Demand engine --- *)

let make_demand ?(clock = Sim.Clock.create ()) ?(frames = 4) ?(pages = 16) ?(page_size = 64)
    ?tlb_slots ?(backing_device = Memstore.Device.drum) ?(policy = Paging.Spec.Lru) () =
  Paging.Spec.build ~clock ~rng:(Sim.Rng.create 0)
    { Paging.Spec.e_page_size = page_size; e_frames = frames; e_pages = pages;
      e_device = backing_device; e_policy = policy; e_tlb_slots = tlb_slots;
      e_compute_us_per_ref = 1 }

let candidates_fault_sim_property =
  QCheck.Test.make ~name:"candidates: fault_sim" ~count:100
    QCheck.(
      pair (int_range 1 6) (list_of_size Gen.(int_range 1 150) (pair (int_bound 15) bool)))
    (fun (frames, ops) ->
      let trace = Array.of_list (List.map fst ops) in
      let writes = Array.of_list (List.map snd ops) in
      let keys = Workload.Trace.extent trace in
      let policy, ok, calls = contract_policy ~frames ~keys () in
      let r =
        Paging.Fault_sim.run_writes ~frames ~policy ~write:(fun i -> writes.(i)) trace
      in
      !ok && !calls = r.Paging.Fault_sim.evictions)

(* Operations: 0 read, 1 write, 2 advise_wont_need, 3 lock then unlock. *)
let candidates_demand_property =
  QCheck.Test.make ~name:"candidates: demand" ~count:60
    QCheck.(
      pair (int_range 2 5)
        (list_of_size Gen.(int_range 1 120) (pair (int_bound 3) (int_bound 15))))
    (fun (frames, ops) ->
      let policy, ok, _ = contract_policy ~keys:16 () in
      (* by hand: a contract-checking policy, which no [Spec.t] describes *)
      let clock = Sim.Clock.create () in
      let level device name words = Memstore.Level.make clock device ~name ~words in
      let t =
        Paging.Demand.create
          {
            Paging.Demand.page_size = 64;
            frames;
            pages = 16;
            core = level Memstore.Device.core "core" (frames * 64);
            backing = level Memstore.Device.drum "drum" (16 * 64);
            policy;
            tlb = None;
            compute_us_per_ref = 1;
          }
      in
      List.iter
        (fun (op, page) ->
          let addr = page * 64 in
          match op with
          | 0 -> ignore (Paging.Demand.read t addr)
          | 1 -> Paging.Demand.write t addr 1L
          | 2 -> Paging.Demand.advise_wont_need t ~page
          | _ ->
            Paging.Demand.lock t ~page;
            ignore (Paging.Demand.read t ((page + 1) mod 16 * 64));
            Paging.Demand.unlock t ~page)
        ops;
      !ok)

(* A controller that sheds every window exercises Multiprog's shed path,
   which evicts a job's pages outside any victim choice. *)
let candidates_multiprog_property =
  QCheck.Test.make ~name:"candidates: multiprog" ~count:60
    QCheck.(
      triple (int_range 1 8) bool
        (list_of_size Gen.(int_range 1 3)
           (list_of_size Gen.(int_range 1 80) (int_bound 9))))
    (fun (frames, shed, jobs) ->
      (* slots job * stride + page, stride the largest job's extent *)
      let stride =
        List.fold_left (fun m refs -> max m (Workload.Trace.extent (Array.of_list refs))) 0 jobs
      in
      let policy, ok, _ = contract_policy ~keys:(List.length jobs * stride) () in
      let controller =
        if shed then
          Some
            (Resilience.Controller.create
               (Resilience.Controller.config ~period_us:500 ~low_utilization:0.99
                  ~high_utilization:1.0 ~min_active:1 ()))
        else None
      in
      let specs =
        List.mapi
          (fun i refs ->
            Workload.Job.make ~name:(string_of_int i) ~refs:(Array.of_list refs)
              ~compute_us_per_ref:10)
          jobs
      in
      let (_ : Dsas.Multiprog.report) =
        Dsas.Multiprog.run ?controller ~quantum_refs:7 ~frames ~policy ~fetch_us:300 specs
      in
      !ok)

(* Two_level chooses only when full, from its whole resident set; with
   a TLB, a hit skips the page table but never names an evicted page. *)
let candidates_two_level_property =
  QCheck.Test.make ~name:"candidates: two_level" ~count:60
    QCheck.(triple (int_range 1 6) (int_range 0 3) segmented_refs)
    (fun (frames, tlb_capacity, segmented) ->
      let module T = Segmentation.Two_level in
      let lengths, refs = in_range segmented in
      let page_size = 4 in
      let keys = Array.fold_left (fun n l -> n + ((l + page_size - 1) / page_size)) 0 lengths in
      let policy, ok, calls = contract_policy ~frames ~keys () in
      let tlb =
        if tlb_capacity = 0 then None
        else Some (Paging.Tlb.create ~capacity:tlb_capacity Paging.Tlb.Lru_replacement)
      in
      let t = T.create { T.page_size; frames; tlb; policy } ~segments:lengths in
      List.iter (fun (segment, offset) -> T.touch t ~segment ~offset ~write:false) refs;
      !ok && !calls = T.faults t - T.resident_pages t)

let test_demand_reads_backing_data () =
  let t = make_demand () in
  (* Pre-load backing store with a recognizable pattern. *)
  for w = 0 to (16 * 64) - 1 do
    Memstore.Physical.write
      (Memstore.Level.physical (Paging.Demand.backing t))
      w
      (Int64.of_int (w * 3))
  done;
  Alcotest.(check int64) "word 0" 0L (Paging.Demand.read t 0);
  Alcotest.(check int64) "word 100" (Int64.of_int 300) (Paging.Demand.read t 100);
  Alcotest.(check int64) "word 1000" (Int64.of_int 3000) (Paging.Demand.read t 1000);
  check_int "three pages faulted" 3 (Paging.Demand.faults t)

let test_demand_write_survives_eviction () =
  let t = make_demand ~frames:2 () in
  Paging.Demand.write t 5 12345L;
  (* Touch enough other pages to force page 0 out (2 frames). *)
  List.iter (fun w -> ignore (Paging.Demand.read t w)) [ 100; 200; 300; 400 ];
  check_bool "page 0 evicted" true (Paging.Demand.frame_of t ~page:0 = None);
  check_bool "writeback happened" true (Paging.Demand.writebacks t >= 1);
  Alcotest.(check int64) "modified data round-trips" 12345L (Paging.Demand.read t 5)

let test_demand_fault_counting_matches_fault_sim () =
  let rng = Sim.Rng.create 17 in
  let word_trace = Workload.Trace.uniform rng ~length:500 ~extent:(16 * 64) in
  let t = make_demand ~policy:Paging.Spec.Fifo () in
  Paging.Demand.run t word_trace;
  let page_trace = Workload.Trace.to_pages ~page_size:64 word_trace in
  let expected = Paging.Fault_sim.run ~frames:4 ~policy:(Paging.Replacement.fifo ()) page_trace in
  check_int "same faults as untimed sim" expected.Paging.Fault_sim.faults
    (Paging.Demand.faults t);
  check_int "refs counted" 500 (Paging.Demand.refs t)

let test_demand_space_time_tracks_device_speed () =
  let rng = Sim.Rng.create 23 in
  let word_trace = Workload.Trace.uniform rng ~length:300 ~extent:(16 * 64) in
  let run device =
    let t = make_demand ~backing_device:device () in
    Paging.Demand.run t word_trace;
    Metrics.Space_time.waiting_fraction (Paging.Demand.space_time t)
  in
  let drum = run Memstore.Device.drum and disk = run Memstore.Device.disk in
  check_bool "slow store means more waiting space-time" true (disk > drum);
  check_bool "disk waiting dominates" true (disk > 0.5)

let test_demand_tlb_saves_time () =
  let trace = Workload.Trace.loop ~length:2000 ~extent:(4 * 64) ~working_set:128 in
  let run tlb_slots =
    let clock = Sim.Clock.create () in
    let t = make_demand ~clock ?tlb_slots () in
    Paging.Demand.run t trace;
    Sim.Clock.now clock
  in
  let without = run None in
  let with_tlb = run (Some 8) in
  check_bool "TLB reduces elapsed time" true (with_tlb < without)

let test_demand_prefetch_avoids_fault () =
  let t = make_demand ~frames:4 () in
  ignore (Paging.Demand.read t 0);
  check_int "one cold fault" 1 (Paging.Demand.faults t);
  Paging.Demand.advise_will_need t ~page:1;
  check_int "prefetch issued" 1 (Paging.Demand.prefetches t);
  (* Burn compute time on page 0 so the prefetch completes. *)
  for _ = 1 to 100 do
    ignore (Paging.Demand.read t 0)
  done;
  ignore (Paging.Demand.read t 64);
  check_int "no demand fault for prefetched page" 1 (Paging.Demand.faults t)

let test_demand_wont_need_frees_frame () =
  let t = make_demand ~frames:4 () in
  ignore (Paging.Demand.read t 0);
  ignore (Paging.Demand.read t 64);
  check_int "two resident" 2 (Paging.Demand.resident_count t);
  Paging.Demand.advise_wont_need t ~page:0;
  check_int "one resident" 1 (Paging.Demand.resident_count t);
  check_int "release recorded" 1 (Paging.Demand.advice_releases t);
  check_bool "page gone" true (Paging.Demand.frame_of t ~page:0 = None)

(* A page released by advice leaves FIFO's load order: loaded again, it
   is the newest page, not the oldest. *)
let test_fifo_forgets_advised_page () =
  let t = make_demand ~frames:2 ~policy:Paging.Spec.Fifo () in
  ignore (Paging.Demand.read t 0);
  ignore (Paging.Demand.read t 64);
  Paging.Demand.advise_wont_need t ~page:0;
  ignore (Paging.Demand.read t 0);
  ignore (Paging.Demand.read t 128);
  check_bool "page 1, loaded first, went" true (Paging.Demand.frame_of t ~page:1 = None);
  check_bool "page 0, loaded last, stayed" true (Paging.Demand.frame_of t ~page:0 <> None)

(* FIFO beside its own account of the load order, kept from the
   engine's on_load and on_evict calls: [wrong] counts the victims that
   are not the candidate loaded longest ago. *)
let fifo_watched () =
  let inner = Paging.Replacement.fifo () in
  let order = ref [] and wrong = ref 0 and choices = ref 0 in
  let forget page = order := List.filter (( <> ) page) !order in
  ( {
      inner with
      Paging.Replacement.on_load =
        (fun ~page ->
          forget page;
          order := !order @ [ page ];
          inner.Paging.Replacement.on_load ~page);
      on_evict =
        (fun ~page ->
          forget page;
          inner.Paging.Replacement.on_evict ~page);
      choose_victim =
        (fun ~candidates ->
          let v = inner.Paging.Replacement.choose_victim ~candidates in
          incr choices;
          if List.find_opt (fun p -> Array.mem p candidates) !order <> Some v then incr wrong;
          v);
    },
    wrong,
    choices )

(* Multiprog drops an aborted job's pages outside any victim choice, the
   page whose fetch failed among them; when the restarted job loads them
   again, FIFO must count them as new. *)
let test_fifo_after_multiprog_abort () =
  let policy, wrong, choices = fifo_watched () in
  let device =
    Device.Model.create
      (Device.Model.config
         ~fault:
           (Device.Fault.config ~seed:11 ~read_error_prob:0.12 ~write_error_prob:0.
              ~permanent_prob:0.3 ~max_retries:1 ~on_exhausted:Device.Fault.Fail ())
         Device.Geometry.atlas_drum)
  in
  let report =
    Dsas.Multiprog.run ~device ~max_restarts:50 ~frames:10 ~policy ~fetch_us:3_000
      (Workload.Job.mix (Sim.Rng.create 31) ~jobs:4 ~refs_per_job:200 ~pages_per_job:12
         ~locality:0.9 ~compute_us_per_ref:60)
  in
  check_bool "jobs were aborted" true (report.Dsas.Multiprog.restarts > 0);
  check_bool "victims were chosen" true (!choices > 0);
  check_int "every victim the oldest candidate" 0 !wrong

let test_demand_lock_pins_page () =
  let t = make_demand ~frames:2 () in
  Paging.Demand.lock t ~page:0;
  (* Stream many other pages through the single remaining frame. *)
  List.iter (fun p -> ignore (Paging.Demand.read t (p * 64))) [ 1; 2; 3; 4; 5; 6 ];
  check_bool "locked page still resident" true (Paging.Demand.frame_of t ~page:0 <> None);
  Paging.Demand.unlock t ~page:0

let test_demand_bound_violation () =
  let t = make_demand () in
  check_bool "out of name space" true
    (match Paging.Demand.read t (16 * 64) with
     | _ -> false
     | exception Memstore.Physical.Bound_violation _ -> true)

(* A trace that fits in the frames changes residency only at its cold
   faults, each of which starts one waiting and one active run, so the
   timeline stays that small however long the run. *)
let test_demand_timeline_grows_with_residency () =
  let frames = 4 in
  let t = make_demand ~frames () in
  Paging.Demand.run t (Array.init 10_000 (fun i -> (i mod frames * 64) + (i * 7 mod 64)));
  check_int "refs" 10_000 (Paging.Demand.refs t);
  check_int "cold faults only" frames (Paging.Demand.faults t);
  let segments = Metrics.Timeline.segments (Paging.Demand.timeline t) in
  check_bool (Printf.sprintf "%d segments, at most %d" segments ((2 * frames) + 1)) true
    (segments <= (2 * frames) + 1)

(* --- Lifetime --- *)

let test_working_set_sizes () =
  let trace = [| 1; 2; 1; 3; 3; 4 |] in
  Alcotest.(check (array int)) "w(t,3)" [| 1; 2; 2; 3; 2; 2 |]
    (Paging.Lifetime.working_set_sizes ~tau:3 trace);
  Alcotest.(check (array int)) "w(t,1)" [| 1; 1; 1; 1; 1; 1 |]
    (Paging.Lifetime.working_set_sizes ~tau:1 trace);
  Alcotest.(check (float 1e-9)) "mean" 2.
    (Paging.Lifetime.mean_working_set ~tau:3 trace)

let test_fault_curve_monotone_for_lru () =
  let trace = Workload.Trace.loop ~length:500 ~extent:20 ~working_set:10 in
  let curve = Paging.Lifetime.fault_curve Paging.Spec.Lru ~frames:[ 2; 4; 8; 12 ] trace in
  let rec nonincreasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && nonincreasing rest
    | [ _ ] | [] -> true
  in
  check_bool "monotone" true (nonincreasing curve)

let test_space_time_optimum () =
  let trace = Workload.Trace.loop ~length:2000 ~extent:64 ~working_set:8 in
  let points =
    Paging.Lifetime.space_time_curve Paging.Spec.Lru ~frames:[ 2; 8; 64 ] ~page_size:64
      ~compute_us_per_ref:1 ~fetch_us:5000 trace
  in
  let best = Paging.Lifetime.optimal_allotment points in
  (* 8 frames hold the loop exactly: fewer thrash, more waste space. *)
  check_int "optimum at the working set" 8 best.Paging.Lifetime.frames;
  check_bool "empty rejected" true
    (match Paging.Lifetime.optimal_allotment [] with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_working_set_run () =
  let trace = Workload.Trace.loop ~length:2000 ~extent:64 ~working_set:8 in
  let r =
    Paging.Lifetime.working_set_run ~tau:100 ~page_size:64 ~compute_us_per_ref:1
      ~fetch_us:5000 trace
  in
  check_int "faults = cold only (loop fits window)" 8 r.Paging.Lifetime.ws_faults;
  check_bool "mean resident ~ 8" true
    (r.Paging.Lifetime.mean_resident > 7. && r.Paging.Lifetime.mean_resident <= 8.);
  (* Consistency with the window-size measurement. *)
  Alcotest.(check (float 1e-9)) "matches mean_working_set"
    (Paging.Lifetime.mean_working_set ~tau:100 trace)
    r.Paging.Lifetime.mean_resident;
  (* Variable allotment never holds more than the fixed optimum needs,
     so its space-time is at least as good here. *)
  let fixed =
    Paging.Lifetime.optimal_allotment
      (Paging.Lifetime.space_time_curve Paging.Spec.Lru ~frames:[ 4; 8; 16; 64 ]
         ~page_size:64 ~compute_us_per_ref:1 ~fetch_us:5000 trace)
  in
  check_bool "WS space-time <= best fixed" true
    (r.Paging.Lifetime.ws_space_time <= fixed.Paging.Lifetime.space_time +. 1e-6)

(* --- Hierarchy --- *)

let make_hierarchy promotion =
  Paging.Hierarchy.create
    {
      Paging.Hierarchy.fast_frames = 2;
      bulk_frames = 4;
      fast_us = 1;
      bulk_us = 10;
      fetch_us = 1000;
      promotion;
    }

let test_hierarchy_promotion_rules () =
  (* Touch page 0 repeatedly: after the threshold it must serve from
     fast core. *)
  let h = make_hierarchy (Paging.Hierarchy.After 3) in
  for _ = 1 to 2 do
    Paging.Hierarchy.touch h ~page:0
  done;
  check_int "not yet promoted" 0 (Paging.Hierarchy.promotions h);
  Paging.Hierarchy.touch h ~page:0;
  check_int "promoted at threshold" 1 (Paging.Hierarchy.promotions h);
  let before = Paging.Hierarchy.fast_hits h in
  Paging.Hierarchy.touch h ~page:0;
  check_int "served from fast core" (before + 1) (Paging.Hierarchy.fast_hits h)

let test_hierarchy_never_vs_always () =
  let trace = Workload.Trace.loop ~length:100 ~extent:8 ~working_set:2 in
  let never = make_hierarchy Paging.Hierarchy.Never in
  Paging.Hierarchy.run never trace;
  check_int "never promotes" 0 (Paging.Hierarchy.promotions never);
  check_int "never has fast hits" 0 (Paging.Hierarchy.fast_hits never);
  let always = make_hierarchy Paging.Hierarchy.Always in
  Paging.Hierarchy.run always trace;
  check_bool "always is faster on a tight loop" true
    (Paging.Hierarchy.elapsed_us always < Paging.Hierarchy.elapsed_us never)

let test_hierarchy_demotion_and_capacity () =
  let h = make_hierarchy Paging.Hierarchy.Always in
  (* Three pages through 2 fast frames: one gets demoted to bulk, no
     crash, counts stay consistent. *)
  List.iter (fun p -> Paging.Hierarchy.touch h ~page:p) [ 0; 1; 2; 0; 1; 2 ];
  check_int "three cold faults" 3 (Paging.Hierarchy.faults h);
  check_int "six refs" 6 (Paging.Hierarchy.refs h);
  (* Evict through the bulk level: 7 distinct pages > 2+4 total frames,
     so page 0 must re-fault. *)
  List.iter (fun p -> Paging.Hierarchy.touch h ~page:p) [ 3; 4; 5; 6; 3; 4; 5; 6 ];
  let faults = Paging.Hierarchy.faults h in
  Paging.Hierarchy.touch h ~page:0;
  check_bool "page 0 was pushed to the drum" true (Paging.Hierarchy.faults h > faults)

(* Property: the timed engine agrees with the untimed fault simulator
   and never loses data, on arbitrary traces with interleaved writes. *)
let demand_model_property =
  QCheck.Test.make ~name:"demand engine preserves data and matches fault counts" ~count:40
    QCheck.(pair (int_range 1 6)
              (list_of_size Gen.(int_range 20 150) (pair (int_bound 1023) bool)))
    (fun (frames, ops) ->
      let page_size = 64 and pages = 16 in
      let engine = make_demand ~frames ~pages ~page_size () in
      (* Model: backing starts as w -> 31w; writes overwrite. *)
      let model = Hashtbl.create 64 in
      let backing = Memstore.Level.physical (Paging.Demand.backing engine) in
      for w = 0 to (pages * page_size) - 1 do
        Memstore.Physical.write backing w (Int64.of_int (31 * w))
      done;
      let expected w =
        match Hashtbl.find_opt model w with
        | Some v -> v
        | None -> Int64.of_int (31 * w)
      in
      let ok = ref true in
      List.iteri
        (fun i (addr, is_write) ->
          if is_write then begin
            let v = Int64.of_int ((i * 7919) + 1) in
            Paging.Demand.write engine addr v;
            Hashtbl.replace model addr v
          end
          else if Paging.Demand.read engine addr <> expected addr then ok := false)
        ops;
      (* Cross-check fault counts against the untimed simulator. *)
      let page_trace = Array.of_list (List.map (fun (a, _) -> a / page_size) ops) in
      let writes = Array.of_list (List.map snd ops) in
      let r =
        Paging.Fault_sim.run_writes ~frames ~policy:(Paging.Replacement.lru ())
          ~write:(fun i -> writes.(i)) page_trace
      in
      !ok && r.Paging.Fault_sim.faults = Paging.Demand.faults engine)

(* --- Spec.build against the hand assembly it replaced --- *)

type build_case = {
  b_page_size : int;
  b_frames : int;
  b_pages : int;
  b_compute_us : int;
  b_tlb_slots : int option;
  b_policy : Paging.Spec.t;
  b_device : (int * Device.Sched.t * Device.Fault.config option) option;
      (* geometry index, scheduling policy, faults *)
  b_recovery : Paging.Demand.recovery;
  b_ops : (int * bool) list;  (* word address, is a write *)
}

let build_geometries =
  [| Device.Geometry.fixed Memstore.Device.drum; Device.Geometry.atlas_drum;
     Device.Geometry.paper_disk |]

(* The assembly every experiment wrote before [Spec.build] served it:
   core level, backing level and the [Demand.create] record, by hand. *)
let hand_built ~obs ?device c =
  let clock = Sim.Clock.create () in
  let core =
    Memstore.Level.make clock Memstore.Device.core ~name:"core"
      ~words:(c.b_frames * c.b_page_size)
  in
  let backing =
    Memstore.Level.make clock Memstore.Device.drum ~name:"drum"
      ~words:(c.b_pages * c.b_page_size)
  in
  Paging.Demand.create ~obs ?device ~recovery:c.b_recovery
    {
      Paging.Demand.page_size = c.b_page_size;
      frames = c.b_frames;
      pages = c.b_pages;
      core;
      backing;
      policy = Paging.Spec.instantiate c.b_policy ~rng:(Sim.Rng.create 5) ~trace:None;
      tlb =
        Option.map
          (fun capacity -> Paging.Tlb.create ~capacity Paging.Tlb.Lru_replacement)
          c.b_tlb_slots;
      compute_us_per_ref = c.b_compute_us;
    }

let spec_built ~obs ?device c =
  Paging.Spec.build ~obs ?device ~recovery:c.b_recovery ~clock:(Sim.Clock.create ())
    ~rng:(Sim.Rng.create 5)
    { Paging.Spec.e_page_size = c.b_page_size; e_frames = c.b_frames; e_pages = c.b_pages;
      e_device = Memstore.Device.drum; e_policy = c.b_policy; e_tlb_slots = c.b_tlb_slots;
      e_compute_us_per_ref = c.b_compute_us }

(* Everything one engine shows of a run: counts, clock, the space-time
   split, what each reference returned, and its event bytes (engine and
   device share the sink, as in x8 and x9). *)
let run_built build c =
  let bytes = Buffer.create 4096 in
  let obs =
    Obs.Sink.collect (fun e -> Obs.Event.to_buffer bytes e; Buffer.add_char bytes '\n')
  in
  let device =
    Option.map
      (fun (g, sched, fault) ->
        Device.Model.create ~obs
          (Device.Model.config ~sched ?fault build_geometries.(g)))
      c.b_device
  in
  let engine = build ~obs ?device c in
  let results =
    List.mapi
      (fun i (addr, write) ->
        let r =
          if write then
            Result.map (fun () -> 0L) (Paging.Demand.write_result engine addr (Int64.of_int i))
          else Paging.Demand.read_result engine addr
        in
        Result.map_error Resilience.Failure.to_string r)
      c.b_ops
  in
  let st = Paging.Demand.space_time engine in
  ( ( Paging.Demand.faults engine,
      Paging.Demand.writebacks engine,
      Sim.Clock.now (Paging.Demand.clock engine) ),
    ( Int64.bits_of_float (Metrics.Space_time.active st),
      Int64.bits_of_float (Metrics.Space_time.waiting st) ),
    results,
    Buffer.contents bytes )

let build_case_gen =
  QCheck.Gen.(
    let* b_page_size = oneofl [ 16; 64; 256 ] in
    let* b_frames = int_range 1 8 in
    let* b_pages = int_range 1 24 in
    let* b_compute_us = int_bound 60 in
    let* b_tlb_slots = opt (int_range 1 8) in
    let* b_policy = oneofl Paging.Spec.[ Lru; Fifo; Clock; Random ] in
    let fault =
      map
        (fun (seed, read_error_prob) ->
          Device.Fault.config ~seed ~read_error_prob ~write_error_prob:0.2
            ~permanent_prob:0.3 ~on_exhausted:Device.Fault.Fail ())
        (pair (int_bound 1_000_000) (oneofl [ 0.1; 0.4 ]))
    in
    let* b_device =
      opt (triple (int_bound 2) (oneofl Device.Sched.all) (opt fault))
    in
    let* b_recovery = oneofl Paging.Demand.[ Mirror; Surface ] in
    let+ b_ops =
      list_size (int_range 1 150) (pair (int_bound ((b_pages * b_page_size) - 1)) bool)
    in
    { b_page_size; b_frames; b_pages; b_compute_us; b_tlb_slots; b_policy; b_device;
      b_recovery; b_ops })

let show_build_case c =
  Printf.sprintf "page %d, %d frames, %d pages, %d us/ref, tlb %s, %s, device %s, %s, ops [%s]"
    c.b_page_size c.b_frames c.b_pages c.b_compute_us
    (match c.b_tlb_slots with None -> "none" | Some n -> string_of_int n)
    (Paging.Spec.to_string c.b_policy)
    (match c.b_device with
     | None -> "none"
     | Some (g, sched, fault) ->
       Printf.sprintf "%s/%s%s" (Device.Geometry.label build_geometries.(g))
         (Device.Sched.name sched) (if fault = None then "" else " faulty"))
    (match c.b_recovery with Paging.Demand.Mirror -> "mirror" | Surface -> "surface")
    (String.concat " "
       (List.map (fun (a, w) -> (if w then "w" else "r") ^ string_of_int a) c.b_ops))

let spec_build_matches_hand_assembly =
  QCheck.Test.make ~name:"Spec.build = the hand assembly" ~count:300
    (QCheck.make ~print:show_build_case build_case_gen)
    (fun c -> run_built spec_built c = run_built hand_built c)

let () =
  Alcotest.run "paging"
    [
      ( "page_table",
        [
          Alcotest.test_case "lifecycle" `Quick test_page_table_lifecycle;
          Alcotest.test_case "bounds" `Quick test_page_table_bounds;
          Alcotest.test_case "lock" `Quick test_page_table_lock;
        ] );
      ( "resident",
        [
          Alcotest.test_case "lowest first" `Quick test_resident_lowest_first;
          QCheck_alcotest.to_alcotest resident_model_property;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "lru eviction" `Quick test_tlb_lru_eviction;
          Alcotest.test_case "fifo eviction" `Quick test_tlb_fifo_eviction;
          Alcotest.test_case "invalidate/flush/zero" `Quick test_tlb_invalidate_flush_zero;
          QCheck_alcotest.to_alcotest tlb_capacity_covers_property;
        ] );
      ( "replacement",
        [
          Alcotest.test_case "FIFO known counts" `Quick test_fifo_known_counts;
          Alcotest.test_case "Belady anomaly" `Quick test_belady_anomaly;
          Alcotest.test_case "LRU known counts" `Quick test_lru_known_counts;
          Alcotest.test_case "OPT known counts" `Quick test_opt_known_counts;
          Alcotest.test_case "LRU loop fit/thrash" `Quick test_lru_loop_thrash_and_fit;
          Alcotest.test_case "accounting" `Quick test_cold_and_eviction_accounting;
          Alcotest.test_case "all policies run" `Quick test_all_policies_run;
          QCheck_alcotest.to_alcotest lru_stack_property;
          QCheck_alcotest.to_alcotest opt_optimality;
          QCheck_alcotest.to_alcotest demand_model_property;
          QCheck_alcotest.to_alcotest spec_build_matches_hand_assembly;
          Alcotest.test_case "CLOCK hand vs evictions" `Quick test_clock_hand_vs_evictions;
          Alcotest.test_case "ATLAS T from load and first use" `Quick test_atlas_first_use;
          QCheck_alcotest.to_alcotest policies_match_reference;
          Alcotest.test_case "no garbage per fault" `Quick test_fault_path_allocates_nothing;
          QCheck_alcotest.to_alcotest candidates_fault_sim_property;
          QCheck_alcotest.to_alcotest candidates_demand_property;
          QCheck_alcotest.to_alcotest candidates_multiprog_property;
          QCheck_alcotest.to_alcotest candidates_two_level_property;
        ] );
      ( "oracles",
        [
          QCheck_alcotest.to_alcotest lru_stack_distance_oracle;
          QCheck_alcotest.to_alcotest opt_exhaustive_oracle;
          QCheck_alcotest.to_alcotest hierarchy_never_oracle;
          QCheck_alcotest.to_alcotest hierarchy_always_oracle;
          QCheck_alcotest.to_alcotest dual_pager_oracle;
          QCheck_alcotest.to_alcotest two_level_oracle;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "working set sizes" `Quick test_working_set_sizes;
          Alcotest.test_case "fault curve monotone" `Quick test_fault_curve_monotone_for_lru;
          Alcotest.test_case "space-time optimum" `Quick test_space_time_optimum;
          Alcotest.test_case "working-set run" `Quick test_working_set_run;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "promotion rules" `Quick test_hierarchy_promotion_rules;
          Alcotest.test_case "never vs always" `Quick test_hierarchy_never_vs_always;
          Alcotest.test_case "demotion+capacity" `Quick test_hierarchy_demotion_and_capacity;
        ] );
      ( "demand",
        [
          Alcotest.test_case "reads backing data" `Quick test_demand_reads_backing_data;
          Alcotest.test_case "write survives eviction" `Quick test_demand_write_survives_eviction;
          Alcotest.test_case "matches fault_sim" `Quick test_demand_fault_counting_matches_fault_sim;
          Alcotest.test_case "space-time vs device" `Quick test_demand_space_time_tracks_device_speed;
          Alcotest.test_case "tlb saves time" `Quick test_demand_tlb_saves_time;
          Alcotest.test_case "prefetch avoids fault" `Quick test_demand_prefetch_avoids_fault;
          Alcotest.test_case "wont-need frees frame" `Quick test_demand_wont_need_frees_frame;
          Alcotest.test_case "FIFO forgets an advised page" `Quick test_fifo_forgets_advised_page;
          Alcotest.test_case "FIFO after a Multiprog abort" `Quick test_fifo_after_multiprog_abort;
          Alcotest.test_case "lock pins page" `Quick test_demand_lock_pins_page;
          Alcotest.test_case "bound violation" `Quick test_demand_bound_violation;
          Alcotest.test_case "timeline grows with residency" `Quick
            test_demand_timeline_grows_with_residency;
        ] );
    ]
