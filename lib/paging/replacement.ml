type t = {
  name : string;
  on_reference : page:int -> write:bool -> unit;
  on_load : page:int -> unit;
  on_evict : page:int -> unit;
  choose_victim : candidates:int array -> int;
}

let no_ref ~page:_ ~write:_ = ()

let no_page ~page:_ = ()

let fifo () =
  (* Load order as a queue; the head among the candidates is the victim. *)
  let order = Queue.create () in
  {
    name = "FIFO";
    on_reference = no_ref;
    on_load = (fun ~page -> Queue.add page order);
    on_evict = no_page;
    choose_victim =
      (fun ~candidates ->
        assert (Array.length candidates > 0);
        let is_candidate p = Array.exists (fun q -> q = p) candidates in
        (* Pop until the head is an eligible (e.g. unlocked) page;
           re-queue skipped pages preserving their relative order. *)
        let skipped = Queue.create () in
        let rec pop () =
          let p = Queue.pop order in
          if is_candidate p then p
          else begin
            Queue.add p skipped;
            pop ()
          end
        in
        let victim = pop () in
        Queue.transfer order skipped;
        Queue.transfer skipped order;
        victim);
  }

let lru () =
  let stamp = Hashtbl.create 64 in
  let tick = ref 0 in
  {
    name = "LRU";
    on_reference =
      (fun ~page ~write:_ ->
        incr tick;
        Hashtbl.replace stamp page !tick);
    on_load = (fun ~page -> Hashtbl.replace stamp page !tick);
    on_evict = (fun ~page -> Hashtbl.remove stamp page);
    choose_victim =
      (fun ~candidates ->
        let oldest p = match Hashtbl.find_opt stamp p with Some s -> s | None -> 0 in
        Array.fold_left
          (fun best p -> if oldest p < oldest best then p else best)
          candidates.(0) candidates);
  }

let clock_sweep () =
  (* Pages on a circular list in load order; a use bit per page set on
     reference; the hand clears bits until it finds one clear. *)
  let used = Hashtbl.create 64 in
  let ring = ref [] in  (* reversed load order *)
  let hand = ref [] in
  {
    name = "CLOCK";
    on_reference = (fun ~page ~write:_ -> Hashtbl.replace used page true);
    on_load =
      (fun ~page ->
        ring := !ring @ [ page ];
        Hashtbl.replace used page false);
    on_evict =
      (fun ~page ->
        ring := List.filter (fun p -> p <> page) !ring;
        hand := List.filter (fun p -> p <> page) !hand;
        Hashtbl.remove used page);
    choose_victim =
      (fun ~candidates ->
        let is_candidate p = Array.exists (fun q -> q = p) candidates in
        let rec sweep budget =
          if budget = 0 then candidates.(0)  (* all bits set and ineligible: degrade *)
          else begin
            (match !hand with [] -> hand := !ring | _ :: _ -> ());
            match !hand with
            | [] -> candidates.(0)
            | p :: rest ->
              hand := rest;
              if not (is_candidate p) then sweep (budget - 1)
              else if Hashtbl.find_opt used p = Some true then begin
                Hashtbl.replace used p false;
                sweep (budget - 1)
              end
              else p
          end
        in
        sweep (2 * (List.length !ring + 1)));
  }

let random rng =
  {
    name = "RANDOM";
    on_reference = no_ref;
    on_load = no_page;
    on_evict = no_page;
    choose_victim = (fun ~candidates -> Sim.Rng.pick rng candidates);
  }

(* Shared helper: random choice among the candidates of the best
   (lowest-keyed) class. *)
let pick_best_class rng ~candidates ~class_of =
  let best = Array.fold_left (fun acc p -> min acc (class_of p)) max_int candidates in
  let pool = Array.of_list (List.filter (fun p -> class_of p = best)
                              (Array.to_list candidates)) in
  Sim.Rng.pick rng pool

let nru rng =
  let used = Hashtbl.create 64 and modified = Hashtbl.create 64 in
  let flag table page = Hashtbl.find_opt table page = Some true in
  {
    name = "NRU";
    on_reference =
      (fun ~page ~write ->
        Hashtbl.replace used page true;
        if write then Hashtbl.replace modified page true);
    on_load = no_page;
    on_evict =
      (fun ~page ->
        Hashtbl.remove used page;
        Hashtbl.remove modified page);
    choose_victim =
      (fun ~candidates ->
        let class_of p =
          (if flag used p then 2 else 0) + if flag modified p then 1 else 0
        in
        let victim = pick_best_class rng ~candidates ~class_of in
        (* Periodic sensor reset, modelled as happening at each decision. *)
        Array.iter (fun p -> Hashtbl.replace used p false) candidates;
        victim);
  }

let lfu () =
  let count = Hashtbl.create 64 in
  let freq p = match Hashtbl.find_opt count p with Some n -> n | None -> 0 in
  {
    name = "LFU";
    on_reference = (fun ~page ~write:_ -> Hashtbl.replace count page (freq page + 1));
    on_load = (fun ~page -> Hashtbl.replace count page 0);
    on_evict = (fun ~page -> Hashtbl.remove count page);
    choose_victim =
      (fun ~candidates ->
        Array.fold_left
          (fun best p -> if freq p < freq best then p else best)
          candidates.(0) candidates);
  }

let atlas_learning () =
  let now = ref 0 in
  let last_use = Hashtbl.create 64 in
  let prev_gap = Hashtbl.create 64 in  (* T: previous period of inactivity *)
  let get table page ~default =
    match Hashtbl.find_opt table page with Some v -> v | None -> default
  in
  {
    name = "ATLAS";
    on_reference =
      (fun ~page ~write:_ ->
        incr now;
        let last = get last_use page ~default:!now in
        if last < !now then Hashtbl.replace prev_gap page (!now - last);
        Hashtbl.replace last_use page !now);
    on_load =
      (fun ~page ->
        Hashtbl.replace last_use page !now;
        if not (Hashtbl.mem prev_gap page) then Hashtbl.replace prev_gap page 0);
    on_evict = no_page;
    choose_victim =
      (fun ~candidates ->
        let t_of p = !now - get last_use p ~default:0 in
        let big_t p = get prev_gap p ~default:0 in
        (* Pages believed out of use: idle longer than their previous
           inactive period. *)
        let out_of_use =
          Array.to_list candidates |> List.filter (fun p -> t_of p > big_t p + 1)
        in
        match out_of_use with
        | first :: _ ->
          List.fold_left (fun best p -> if t_of p > t_of best then p else best)
            first out_of_use
        | [] ->
          (* Otherwise: the page that, if the recent pattern holds, will
             be needed last, i.e. maximal T - t. *)
          Array.fold_left
            (fun best p -> if big_t p - t_of p > big_t best - t_of best then p else best)
            candidates.(0) candidates);
  }

let m44 rng =
  let count = Hashtbl.create 64 and modified = Hashtbl.create 64 in
  let freq p = match Hashtbl.find_opt count p with Some n -> n | None -> 0 in
  {
    name = "M44";
    on_reference =
      (fun ~page ~write ->
        Hashtbl.replace count page (freq page + 1);
        if write then Hashtbl.replace modified page true);
    on_load = (fun ~page -> Hashtbl.replace count page 0);
    on_evict =
      (fun ~page ->
        Hashtbl.remove count page;
        Hashtbl.remove modified page);
    choose_victim =
      (fun ~candidates ->
        (* Equally acceptable = least frequently used; unmodified
           preferred within that set (no write-back needed).  Counts age
           exponentially at every decision, so a freshly loaded page is
           not condemned merely for having had no time to accumulate
           references. *)
        let least = Array.fold_left (fun acc p -> min acc (freq p)) max_int candidates in
        let class_of p =
          if freq p > least then 2
          else if Hashtbl.find_opt modified p = Some true then 1
          else 0
        in
        let victim = pick_best_class rng ~candidates ~class_of in
        Array.iter (fun p -> Hashtbl.replace count p ((freq p / 2) + 1)) candidates;
        victim);
  }

let working_set ~tau =
  assert (tau > 0);
  let now = ref 0 in
  let last_use = Hashtbl.create 64 in
  let last p = match Hashtbl.find_opt last_use p with Some v -> v | None -> 0 in
  {
    name = Printf.sprintf "WS(%d)" tau;
    on_reference =
      (fun ~page ~write:_ ->
        incr now;
        Hashtbl.replace last_use page !now);
    on_load = (fun ~page -> Hashtbl.replace last_use page !now);
    on_evict = (fun ~page -> Hashtbl.remove last_use page);
    choose_victim =
      (fun ~candidates ->
        (* Oldest page; if it is outside the window that is a true
           working-set eviction, otherwise it degrades to LRU. *)
        Array.fold_left
          (fun best p -> if last p < last best then p else best)
          candidates.(0) candidates);
  }

let opt trace =
  (* occurrences.(page) = positions of page in the trace, ascending;
     cursor.(page) = index of the first occurrence not yet consumed. *)
  let extent = Workload.Trace.extent trace in
  let occurrences = Array.make extent [] in
  Array.iteri (fun i p -> occurrences.(p) <- i :: occurrences.(p)) trace;
  let occurrences = Array.map (fun l -> Array.of_list (List.rev l)) occurrences in
  let cursor = Array.make extent 0 in
  let position = ref (-1) in
  let next_use p =
    if p >= extent then max_int
    else begin
      let occ = occurrences.(p) in
      while cursor.(p) < Array.length occ && occ.(cursor.(p)) <= !position do
        cursor.(p) <- cursor.(p) + 1
      done;
      if cursor.(p) >= Array.length occ then max_int else occ.(cursor.(p))
    end
  in
  {
    name = "OPT";
    on_reference = (fun ~page:_ ~write:_ -> incr position);
    on_load = no_page;
    on_evict = no_page;
    choose_victim =
      (fun ~candidates ->
        Array.fold_left
          (fun best p -> if next_use p > next_use best then p else best)
          candidates.(0) candidates);
  }
