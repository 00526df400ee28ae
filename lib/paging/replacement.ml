type t = {
  name : string;
  on_reference : page:int -> write:bool -> unit;
  on_load : page:int -> unit;
  on_evict : page:int -> unit;
  choose_victim : candidates:int array -> int;
}

let no_ref ~page:_ ~write:_ = ()

let no_page ~page:_ = ()

(* Per-page state: one int per key, in a flat array grown to a power of
   two past the largest key written.  A key never written reads as
   [absent].  Victim scans read every candidate's state through [get],
   so [get] and [set] are inlined wherever they are called. *)
type state = { mutable v : int array; absent : int }

let state absent = { v = [||]; absent }

let[@inline] get s k = if k < Array.length s.v then s.v.(k) else s.absent

(* Powers of two keep the arrays a run leaves behind in few sizes, so
   the few that a minor collection promotes need few of the major
   heap's size-classed pools. *)
let grow s k =
  let n = Array.length s.v in
  let size = ref (Int.max 1 (2 * n)) in
  while !size <= k do
    size := 2 * !size
  done;
  let grown = Array.make !size s.absent in
  Array.blit s.v 0 grown 0 n;
  s.v <- grown

let[@inline] set s k x =
  if k >= Array.length s.v then grow s k;
  s.v.(k) <- x

(* Membership in the ascending candidates. *)
let is_candidate (candidates : int array) page =
  let lo = ref 0 and hi = ref (Array.length candidates) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if candidates.(mid) < page then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length candidates && candidates.(!lo) = page

(* The first candidate whose state is smallest. *)
let least s (candidates : int array) =
  let best = ref candidates.(0) in
  let best_key = ref (get s !best) in
  for i = 1 to Array.length candidates - 1 do
    let p = candidates.(i) in
    let k = get s p in
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

let fifo () =
  (* Load order on a ring of [!len] pages from [!head], oldest first,
     whose size is a power of two; [queued] marks the pages on it.  The
     victim is the oldest candidate, and a page evicted outside FIFO's
     own choice leaves the ring too.  Either way the pages loaded before
     it close up behind it, keeping their order.  (A load stamp per page
     would be shorter, but finding the least stamp reads every candidate
     at each fault, where the ring looks at its head.) *)
  let ring = ref (Array.make 16 0) and head = ref 0 and len = ref 0 in
  let queued = state 0 in
  let slot i = (!head + i) land (Array.length !ring - 1) in
  let drop k =
    let r = !ring in
    for i = k downto 1 do
      r.(slot i) <- r.(slot (i - 1))
    done;
    head := slot 1;
    decr len
  in
  {
    name = "FIFO";
    on_reference = no_ref;
    on_load =
      (fun ~page ->
        let r = !ring in
        if !len = Array.length r then begin
          let grown = Array.make (2 * !len) 0 in
          for i = 0 to !len - 1 do
            grown.(i) <- r.(slot i)
          done;
          ring := grown;
          head := 0
        end;
        !ring.(slot !len) <- page;
        incr len;
        set queued page 1);
    on_evict =
      (fun ~page ->
        if get queued page = 1 then begin
          let k = ref 0 in
          while !ring.(slot !k) <> page do
            incr k
          done;
          drop !k;
          set queued page 0
        end);
    choose_victim =
      (fun ~candidates ->
        assert (Array.length candidates > 0);
        let k = ref 0 in
        while !k < !len && not (is_candidate candidates !ring.(slot !k)) do
          incr k
        done;
        if !k = !len then invalid_arg "Replacement.fifo: no candidate was loaded";
        let victim = !ring.(slot !k) in
        drop !k;
        set queued victim 0;
        victim);
  }

let lru () =
  let stamp = state 0 in
  let tick = ref 0 in
  {
    name = "LRU";
    on_reference =
      (fun ~page ~write:_ ->
        incr tick;
        set stamp page !tick);
    on_load = (fun ~page -> set stamp page !tick);
    on_evict = (fun ~page -> set stamp page 0);
    choose_victim = (fun ~candidates -> least stamp candidates);
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
        let budget = ref (2 * (!len + 1)) and victim = ref candidates.(0) in
        let sweeping = ref true in
        while !sweeping do
          if !budget = 0 then sweeping := false  (* all bits set and ineligible: degrade *)
          else begin
            if !h >= !hend then begin
              h := 0;
              hend := !len
            end;
            if !h >= !hend then sweeping := false
            else begin
              let p = !ring.(!h) in
              incr h;
              decr budget;
              if is_candidate candidates p then
                if get used p = 1 then set used p 0
                else begin
                  victim := p;
                  sweeping := false
                end
            end
          end
        done;
        !victim);
  }

let random rng =
  {
    name = "RANDOM";
    on_reference = no_ref;
    on_load = no_page;
    on_evict = no_page;
    choose_victim = (fun ~candidates -> Sim.Rng.pick rng candidates);
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
           each candidate's use bit clears once its class is read.  The
           pool holds the candidates of the best class so far in
           candidate order, so the single draw picks what [Sim.Rng.pick]
           over that class would. *)
        let n = Array.length candidates in
        let pool = scratch pool n in
        let best = ref max_int and pooled = ref 0 in
        for i = 0 to n - 1 do
          let p = candidates.(i) in
          let f = get bits p in
          if f >= 2 then set bits p (f land 1);
          if f < !best then begin
            best := f;
            pooled := 0
          end;
          if f = !best then begin
            pool.(!pooled) <- p;
            incr pooled
          end
        done;
        pool.(Sim.Rng.int rng !pooled));
  }

let lfu () =
  let count = state 0 in
  {
    name = "LFU";
    on_reference = (fun ~page ~write:_ -> set count page (get count page + 1));
    on_load = (fun ~page -> set count page 0);
    on_evict = (fun ~page -> set count page 0);
    choose_victim = (fun ~candidates -> least count candidates);
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
        (* Class 2 for the more used, else the modify bit; the draw is
           NRU's, over the best class in candidate order. *)
        let pool = scratch pool n in
        let best = ref max_int and pooled = ref 0 in
        for i = 0 to n - 1 do
          let p = candidates.(i) in
          let c = if seen.(i) > !least then 2 else get modified p in
          if c < !best then begin
            best := c;
            pooled := 0
          end;
          if c = !best then begin
            pool.(!pooled) <- p;
            incr pooled
          end
        done;
        pool.(Sim.Rng.int rng !pooled));
  }

let working_set ~tau =
  assert (tau > 0);
  (* With a fixed frame count the oldest page goes: outside the window
     that is a true working-set eviction, inside it is LRU's choice. *)
  { (lru ()) with name = Printf.sprintf "WS(%d)" tau }

(* An int array of at most this many elements is made on the minor
   heap; a longer one goes straight to the major heap. *)
let chunk = 256

let opt trace =
  (* Each position's next use: [next.(i / chunk).(i mod chunk)] is the
     position of the next reference to [trace.(i)] after [i], max_int if
     none, and [upcoming.(p)] is page [p]'s next use after the current
     position.  Chunks keep every array of a run off the major heap. *)
  let n = Array.length trace and extent = Workload.Trace.extent trace in
  let upcoming = Array.make extent max_int in
  let next =
    Array.init ((n + chunk - 1) / chunk) (fun c -> Array.make (Int.min chunk (n - (c * chunk))) 0)
  in
  for i = n - 1 downto 0 do
    let p = trace.(i) in
    next.(i / chunk).(i mod chunk) <- upcoming.(p);
    upcoming.(p) <- i
  done;
  let position = ref (-1) in
  {
    name = "OPT";
    on_reference =
      (fun ~page:_ ~write:_ ->
        incr position;
        let i = !position in
        if i < n then upcoming.(trace.(i)) <- next.(i / chunk).(i mod chunk));
    on_load = no_page;
    on_evict = no_page;
    choose_victim =
      (fun ~candidates ->
        (* The farthest next use, the first candidate among ties; a page
           not used again is farthest. *)
        let best = ref 0 and best_use = ref (-1) in
        for i = 0 to Array.length candidates - 1 do
          let p = candidates.(i) in
          let use = if p >= extent then max_int else upcoming.(p) in
          if use > !best_use then begin
            best := i;
            best_use := use
          end
        done;
        candidates.(!best));
  }
