(* The fault path's three modules as they stood while victim scans
   still bisected, called a closure per candidate and allocated on every
   choice: the oracle that test_paging holds [Sim.Rng],
   [Paging.Resident] and [Paging.Replacement] to, as test_device keeps
   its list queue.  [Rng] boxes its counter as an [int64]; [Resident]
   shifts with [Array.blit] and has no [replace]; [Replacement] draws
   from this [Rng] and keeps FIFO's load order in a [Queue].  One change
   was made here on purpose: FIFO's [on_evict] takes the page out of
   its queue, which the production FIFO also does. *)

module Rng = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let create seed = { state = Int64.of_int seed }

  (* Checkpoint hooks: the whole generator is its 64-bit counter, so a
     saved state restores the exact stream position. *)
  let state t = t.state
  let of_state s = { state = s }

  (* [derive ?override default]: the per-site historical seed, unless a
     global --seed overrides the run.  The override is folded into the
     site's own constant so distinct sites keep distinct streams while
     sites that deliberately share a constant (a regenerated trace) keep
     sharing one. *)
  let derive ?override default =
    match override with
    | None -> create default
    | Some s -> create (s lxor default)

  let bits64 t =
    t.state <- Int64.add t.state golden_gamma;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let split t = { state = bits64 t }

  (* A non-negative 62-bit int, safe on 64-bit OCaml's 63-bit [int]. *)
  let nonneg t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

  let int t n =
    assert (n > 0);
    nonneg t mod n

  let int_in t lo hi =
    assert (lo <= hi);
    lo + int t (hi - lo + 1)

  let bool t = Int64.logand (bits64 t) 1L = 1L

  let unit_float t =
    (* 53 random bits into [0, 1). *)
    let mantissa = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
    float_of_int mantissa *. 0x1p-53

  let float t x = unit_float t *. x

  let exponential t mean =
    assert (mean > 0.);
    let u = unit_float t in
    -.mean *. log (1. -. u)

  let geometric t p =
    assert (p > 0. && p <= 1.);
    if p >= 1. then 0
    else
      let u = unit_float t in
      int_of_float (floor (log (1. -. u) /. log (1. -. p)))

  let pick t a =
    assert (Array.length a > 0);
    a.(int t (Array.length a))

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
end

module Resident = struct
  type t = { set : int array; mutable n : int }

  let create ~capacity = { set = Array.make capacity 0; n = 0 }

  let length t = t.n

  (* The index of the first member >= [x]. *)
  let position t x =
    let lo = ref 0 and hi = ref t.n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if t.set.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo

  let mem t x =
    let at = position t x in
    at < t.n && t.set.(at) = x

  let add t x =
    let at = position t x in
    if t.n = Array.length t.set then invalid_arg "Resident.add: full";
    if at < t.n && t.set.(at) = x then invalid_arg "Resident.add: already a member";
    Array.blit t.set at t.set (at + 1) (t.n - at);
    t.set.(at) <- x;
    t.n <- t.n + 1

  let remove t x =
    let at = position t x in
    if at = t.n || t.set.(at) <> x then invalid_arg "Resident.remove: not a member";
    Array.blit t.set (at + 1) t.set at (t.n - at - 1);
    t.n <- t.n - 1

  let lowest t = if t.n = 0 then None else Some t.set.(0)

  let elements t = if t.n = Array.length t.set then t.set else Array.sub t.set 0 t.n

  let filter t keep =
    let out = Array.make t.n 0 and kept = ref 0 in
    for i = 0 to t.n - 1 do
      let x = t.set.(i) in
      if keep x then begin
        out.(!kept) <- x;
        incr kept
      end
    done;
    if !kept = t.n then out else Array.sub out 0 !kept
end

module Replacement = struct
  type t = {
    name : string;
    on_reference : page:int -> write:bool -> unit;
    on_load : page:int -> unit;
    on_evict : page:int -> unit;
    choose_victim : candidates:int array -> int;
  }

  let no_ref ~page:_ ~write:_ = ()

  let no_page ~page:_ = ()

  (* Per-page state: one int per key, in a flat array grown to the
     largest key written.  A key never written reads as [absent]. *)
  type state = { mutable v : int array; absent : int }

  let state absent = { v = [||]; absent }

  let get s k = if k < Array.length s.v then s.v.(k) else s.absent

  let set s k x =
    let n = Array.length s.v in
    if k >= n then begin
      let grown = Array.make (max (k + 1) (2 * n)) s.absent in
      Array.blit s.v 0 grown 0 n;
      s.v <- grown
    end;
    s.v.(k) <- x

  (* Membership in the ascending candidates. *)
  let is_candidate (candidates : int array) page =
    let lo = ref 0 and hi = ref (Array.length candidates) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if candidates.(mid) < page then lo := mid + 1 else hi := mid
    done;
    !lo < Array.length candidates && candidates.(!lo) = page

  (* The first candidate with the smallest key; each key is read once. *)
  let argmin (candidates : int array) (key : int -> int) =
    let best = ref candidates.(0) in
    let best_key = ref (key !best) in
    for i = 1 to Array.length candidates - 1 do
      let p = candidates.(i) in
      let k = key p in
      if k < !best_key then begin
        best := p;
        best_key := k
      end
    done;
    !best

  (* A scratch array of at least [n] ints, reused across victim choices. *)
  let scratch buf n =
    if Array.length !buf < n then buf := Array.make n 0;
    !buf

  (* Random choice among the candidates of the best (lowest) class.
     [class_of i] is the class of [candidates.(i)], read once per index in
     order; the pool keeps candidate order, so the single draw picks what
     [Rng.pick] over that pool would. *)
  let pick_best_class rng pool ~candidates ~class_of =
    let n = Array.length candidates in
    let pool = scratch pool n in
    let best = ref max_int and count = ref 0 in
    for i = 0 to n - 1 do
      let c = class_of i in
      if c < !best then begin
        best := c;
        count := 0
      end;
      if c = !best then begin
        pool.(!count) <- candidates.(i);
        incr count
      end
    done;
    pool.(Rng.int rng !count)

  let fifo () =
    (* Load order as a queue; the head among the candidates is the victim.
       A page evicted outside that choice leaves the queue. *)
    let order = Queue.create () in
    {
      name = "FIFO";
      on_reference = no_ref;
      on_load = (fun ~page -> Queue.add page order);
      on_evict =
        (fun ~page ->
          let kept = Queue.create () in
          Queue.iter (fun p -> if p <> page then Queue.add p kept) order;
          Queue.clear order;
          Queue.transfer kept order);
      choose_victim =
        (fun ~candidates ->
          assert (Array.length candidates > 0);
          (* Pop until the head is an eligible (e.g. unlocked) page;
             re-queue skipped pages preserving their relative order. *)
          let skipped = Queue.create () in
          let rec pop () =
            let p = Queue.pop order in
            if is_candidate candidates p then p
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
    let stamp = state 0 in
    let tick = ref 0 in
    let oldest = get stamp in
    {
      name = "LRU";
      on_reference =
        (fun ~page ~write:_ ->
          incr tick;
          set stamp page !tick);
      on_load = (fun ~page -> set stamp page !tick);
      on_evict = (fun ~page -> set stamp page 0);
      choose_victim = (fun ~candidates -> argmin candidates oldest);
    }

  let clock_sweep () =
    (* Pages on a ring in load order, [!ring.(0 .. !len - 1)], and a use
       bit per page set on reference (1 in [used]); the hand clears bits
       until it finds one clear.  The hand is the range [!h, !hend): what
       it has left of the ring as the ring stood at its last wrap, so a
       page loaded since then waits for the next wrap. *)
    let used = state 0 in
    let ring = ref (Array.make 16 0) and len = ref 0 in
    let h = ref 0 and hend = ref 0 in
    {
      name = "CLOCK";
      on_reference = (fun ~page ~write:_ -> set used page 1);
      on_load =
        (fun ~page ->
          if !len = Array.length !ring then begin
            let grown = Array.make (2 * !len) 0 in
            Array.blit !ring 0 grown 0 !len;
            ring := grown
          end;
          !ring.(!len) <- page;
          incr len;
          set used page 0);
      on_evict =
        (fun ~page ->
          (* Drop every occurrence, shifting the rest down; the hand's
             range shrinks by the occurrences inside or before it. *)
          let r = !ring and h0 = !h and hend0 = !hend in
          let kept = ref 0 in
          for i = 0 to !len - 1 do
            let p = r.(i) in
            if p = page then begin
              if i < h0 then decr h;
              if i < hend0 then decr hend
            end
            else begin
              r.(!kept) <- p;
              incr kept
            end
          done;
          len := !kept;
          set used page 0);
      choose_victim =
        (fun ~candidates ->
          let rec sweep budget =
            if budget = 0 then candidates.(0)  (* all bits set and ineligible: degrade *)
            else begin
              if !h >= !hend then begin
                h := 0;
                hend := !len
              end;
              if !h >= !hend then candidates.(0)
              else begin
                let p = !ring.(!h) in
                incr h;
                if not (is_candidate candidates p) then sweep (budget - 1)
                else if get used p = 1 then begin
                  set used p 0;
                  sweep (budget - 1)
                end
                else p
              end
            end
          in
          sweep (2 * (!len + 1)));
    }

  let random rng =
    {
      name = "RANDOM";
      on_reference = no_ref;
      on_load = no_page;
      on_evict = no_page;
      choose_victim = (fun ~candidates -> Rng.pick rng candidates);
    }

  let nru rng =
    (* Per page, the use bit is worth 2 and the modify bit 1, so the
       field is the page's class. *)
    let bits = state 0 and pool = ref [||] in
    {
      name = "NRU";
      on_reference =
        (fun ~page ~write ->
          set bits page (get bits page lor (if write then 3 else 2)));
      on_load = no_page;
      on_evict = (fun ~page -> set bits page 0);
      choose_victim =
        (fun ~candidates ->
          (* Periodic sensor reset, modelled as happening at each decision:
             each candidate's use bit clears once its class is read. *)
          pick_best_class rng pool ~candidates ~class_of:(fun i ->
              let p = candidates.(i) in
              let f = get bits p in
              if f >= 2 then set bits p (f land 1);
              f));
    }

  let lfu () =
    let count = state 0 in
    let freq = get count in
    {
      name = "LFU";
      on_reference = (fun ~page ~write:_ -> set count page (freq page + 1));
      on_load = (fun ~page -> set count page 0);
      on_evict = (fun ~page -> set count page 0);
      choose_victim = (fun ~candidates -> argmin candidates freq);
    }

  let atlas_learning () =
    (* Per page, the time of last use ([-1] before the page is first
       referenced or loaded) and T, the previous period of inactivity. *)
    let now = ref 0 in
    let last = state (-1) and gap = state 0 in
    {
      name = "ATLAS";
      on_reference =
        (fun ~page ~write:_ ->
          incr now;
          let l = get last page in
          if l >= 0 && l < !now then set gap page (!now - l);
          set last page !now);
      on_load = (fun ~page -> set last page !now);
      on_evict = no_page;
      choose_victim =
        (fun ~candidates ->
          (* Pages believed out of use are idle longer than their previous
             inactive period: take the one idle longest.  Otherwise take
             the page that, if the recent pattern holds, will be needed
             last, i.e. maximal T - t.  Both keep the first among ties. *)
          let out = ref (-1) and out_t = ref 0 in
          let best = ref (-1) and best_key = ref 0 in
          for i = 0 to Array.length candidates - 1 do
            let p = candidates.(i) in
            let l = get last p in
            (* a page never seen reads as last used at 0 *)
            let t = !now - (if l < 0 then 0 else l) and big_t = get gap p in
            if t > big_t + 1 && (!out < 0 || t > !out_t) then begin
              out := i;
              out_t := t
            end;
            if !best < 0 || big_t - t > !best_key then begin
              best := i;
              best_key := big_t - t
            end
          done;
          candidates.(if !out >= 0 then !out else !best));
    }

  let m44 rng =
    let count = state 0 and modified = state 0 in
    let counts = ref [||] and pool = ref [||] in
    {
      name = "M44";
      on_reference =
        (fun ~page ~write ->
          set count page (get count page + 1);
          if write then set modified page 1);
      on_load = (fun ~page -> set count page 0);
      on_evict =
        (fun ~page ->
          set count page 0;
          set modified page 0);
      choose_victim =
        (fun ~candidates ->
          (* Equally acceptable = least frequently used; unmodified
             preferred within that set (no write-back needed).  Counts age
             exponentially at every decision, so a freshly loaded page is
             not condemned merely for having had no time to accumulate
             references. *)
          let n = Array.length candidates in
          let seen = scratch counts n in
          let least = ref max_int in
          for i = 0 to n - 1 do
            let p = candidates.(i) in
            let c = get count p in
            seen.(i) <- c;
            if c < !least then least := c;
            set count p ((c / 2) + 1)
          done;
          pick_best_class rng pool ~candidates ~class_of:(fun i ->
              if seen.(i) > !least then 2
              else get modified candidates.(i)));
    }

  let working_set ~tau =
    assert (tau > 0);
    (* With a fixed frame count the oldest page goes: outside the window
       that is a true working-set eviction, inside it is LRU's choice. *)
    { (lru ()) with name = Printf.sprintf "WS(%d)" tau }

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
    (* Farthest next use first: the smallest negated next use. *)
    let key p = -next_use p in
    {
      name = "OPT";
      on_reference = (fun ~page:_ ~write:_ -> incr position);
      on_load = no_page;
      on_evict = no_page;
      choose_victim = (fun ~candidates -> argmin candidates key);
    }
end
