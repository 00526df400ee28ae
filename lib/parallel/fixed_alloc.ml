(* Shared pool of magazines (arrays of free slot indices) on a Treiber
   stack, fronted by per-domain caches that hold up to two magazines.
   A magazine array is owned by exactly one party at a time — the pool
   or one cache — so its contents are never written concurrently; the
   pool's CAS push/pop is the only cross-domain synchronisation. *)

type t = {
  base : int;
  slots : int;
  slot_words : int;
  magazine : int;
  pool : int array Freestack.t;
  caches : cache list Atomic.t;
}

and cache = {
  shared : t;
  (* [loaded] holds [top] free slot indices; alloc pops from the top,
     free pushes.  [prev] is the second magazine of the classic
     two-magazine cache: it absorbs the empty/full thrash of an
     alloc/free stream sitting exactly on a magazine boundary. *)
  mutable loaded : int array;
  mutable top : int;
  mutable prev : int array;
  mutable prev_top : int;
  mutable allocs : int;
  mutable frees : int;
  mutable refills : int;
  mutable flushes : int;
  mutable failures : int;
}

type stats = {
  allocs : int;
  frees : int;
  refills : int;
  flushes : int;
  failures : int;
}

let create ?(base = 0) ?(magazine = 64) ~slots ~slot_words () =
  if slots < 1 then invalid_arg "Fixed_alloc.create: slots < 1";
  if slot_words < 1 then invalid_arg "Fixed_alloc.create: slot_words < 1";
  if magazine < 1 then invalid_arg "Fixed_alloc.create: magazine < 1";
  let pool = Freestack.create () in
  (* Slice [0..slots) into magazines.  Each magazine is descending so
     that popping from its top hands out the lowest slot first; pushing
     the highest-slot magazine first leaves the lowest on top of the
     LIFO pool.  Cosmetic, but it makes single-cache allocation sweep
     the region from [base] upward, which reads well in traces. *)
  let hi = ref slots in
  while !hi > 0 do
    let lo = max 0 (!hi - magazine) in
    let m = Array.init (!hi - lo) (fun i -> !hi - 1 - i) in
    Freestack.push pool m;
    hi := lo
  done;
  { base; slots; slot_words; magazine; pool; caches = Atomic.make [] }

let rec register t c =
  let old = Atomic.get t.caches in
  if not (Atomic.compare_and_set t.caches old (c :: old)) then register t c

let cache t =
  let c =
    { shared = t; loaded = [||]; top = 0; prev = [||]; prev_top = 0;
      allocs = 0; frees = 0; refills = 0; flushes = 0; failures = 0 }
  in
  register t c;
  c

let swap_magazines c =
  let m = c.loaded and n = c.top in
  c.loaded <- c.prev;
  c.top <- c.prev_top;
  c.prev <- m;
  c.prev_top <- n

let alloc c =
  if c.top = 0 && c.prev_top > 0 then swap_magazines c;
  if c.top = 0 then begin
    match Freestack.pop c.shared.pool with
    | Some m ->
      c.refills <- c.refills + 1;
      c.loaded <- m;
      c.top <- Array.length m
    | None -> ()
  end;
  if c.top = 0 then begin
    c.failures <- c.failures + 1;
    None
  end else begin
    c.top <- c.top - 1;
    let slot = c.loaded.(c.top) in
    c.allocs <- c.allocs + 1;
    Some (c.shared.base + (slot * c.shared.slot_words))
  end

let free c addr =
  let t = c.shared in
  let off = addr - t.base in
  if off < 0 || off >= t.slots * t.slot_words || off mod t.slot_words <> 0
  then invalid_arg "Fixed_alloc.free: address not a slot in this region";
  let slot = off / t.slot_words in
  if c.top >= Array.length c.loaded then begin
    if c.prev_top < Array.length c.prev then swap_magazines c
    else begin
      (* Both magazines full (or the zero-length initial stubs): retire
         the loaded one to the pool and start a fresh empty magazine. *)
      if Array.length c.loaded > 0 then begin
        Freestack.push t.pool c.loaded;
        c.flushes <- c.flushes + 1
      end;
      c.loaded <- Array.make t.magazine 0;
      c.top <- 0
    end
  end;
  c.loaded.(c.top) <- slot;
  c.top <- c.top + 1;
  c.frees <- c.frees + 1

let stats (c : cache) =
  { allocs = c.allocs; frees = c.frees; refills = c.refills;
    flushes = c.flushes; failures = c.failures }

let total_stats t =
  List.fold_left
    (fun (acc : stats) (c : cache) ->
      { allocs = acc.allocs + c.allocs;
        frees = acc.frees + c.frees;
        refills = acc.refills + c.refills;
        flushes = acc.flushes + c.flushes;
        failures = acc.failures + c.failures })
    { allocs = 0; frees = 0; refills = 0; flushes = 0; failures = 0 }
    (Atomic.get t.caches)

let slots t = t.slots
let slot_words t = t.slot_words
let base t = t.base
