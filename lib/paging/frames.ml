(* Key states, one byte per key. *)
let untouched = '\000'

let touched = '\001'

let resident = '\002'

type t = {
  set : Resident.t;
  capacity : int;
  policy : Replacement.t;
  state : Bytes.t;
  pinned : (int -> bool) option;
  scratch : int array;  (* the unpinned members, when some are pinned *)
}

(* The state bytes come in powers of two, as the policies' per-page
   arrays do, so the few a run keeps need few of the major heap's
   size-classed pools. *)
let rec rounded n keys = if n >= keys then n else rounded (2 * n) keys

let create ?pinned ~capacity ~keys policy =
  {
    set = Resident.create ~capacity;
    capacity;
    policy;
    state = Bytes.make (rounded 8 keys) untouched;
    pinned;
    scratch = (match pinned with None -> [||] | Some _ -> Array.make capacity 0);
  }

let hit = -1

let loaded = -2

let stalled = -3

let length t = Resident.length t.set

let elements t = Resident.elements t.set

(* The unpinned members: the member array itself when none is pinned,
   else a fresh array of the rest, gathered in one pass through
   [scratch]. *)
let[@inline] candidates t =
  let members = Resident.elements t.set in
  match t.pinned with
  | None -> members
  | Some pinned ->
    let n = Array.length members and kept = ref 0 in
    for i = 0 to n - 1 do
      let p = members.(i) in
      if not (pinned p) then begin
        t.scratch.(!kept) <- p;
        incr kept
      end
    done;
    if !kept = n then members else Array.sub t.scratch 0 !kept

let[@inline] choose t =
  let candidates = candidates t in
  if Array.length candidates = 0 then stalled
  else begin
    let v = t.policy.Replacement.choose_victim ~candidates in
    let candidate =
      v >= 0
      && v < Bytes.length t.state
      && Bytes.get t.state v = resident
      && match t.pinned with Some pinned -> not (pinned v) | None -> true
    in
    if not candidate then
      invalid_arg (Printf.sprintf "Frames: %s chose %d, not a candidate" t.policy.name v);
    v
  end

let[@inline] load t ~page =
  Resident.add t.set page;
  Bytes.set t.state page resident;
  t.policy.Replacement.on_load ~page

let remove t ~page =
  Resident.remove t.set page;
  Bytes.set t.state page touched;
  t.policy.Replacement.on_evict ~page

let[@inline] fault t ~page =
  if Resident.length t.set < t.capacity then begin
    load t ~page;
    loaded
  end
  else begin
    let victim = choose t in
    if victim <> stalled then begin
      Resident.replace t.set ~victim page;
      Bytes.set t.state victim touched;
      t.policy.Replacement.on_evict ~page:victim;
      Bytes.set t.state page resident;
      t.policy.Replacement.on_load ~page
    end;
    victim
  end

let reference t ~page ~write = t.policy.Replacement.on_reference ~page ~write

let touch t ~page ~write =
  t.policy.Replacement.on_reference ~page ~write;
  if Bytes.get t.state page = resident then hit else fault t ~page

type result = { refs : int; faults : int; cold : int; evictions : int }

let run ?(obs = Obs.Sink.null) ?write t trace =
  let tracing = Obs.Sink.is_active obs in
  let policy = t.policy and state = t.state in
  let faults = ref 0 and cold = ref 0 and evictions = ref 0 in
  for i = 0 to Array.length trace - 1 do
    let page = trace.(i) in
    let write = match write with Some write -> write i | None -> false in
    policy.Replacement.on_reference ~page ~write;
    if Bytes.get state page <> resident then begin
      incr faults;
      if tracing then Obs.Sink.emit obs (Obs.Event.make ~t_us:i (Fault { page }));
      if Bytes.get state page = untouched then begin
        incr cold;
        if tracing then Obs.Sink.emit obs (Obs.Event.make ~t_us:i (Cold_fault { page }))
      end;
      let victim = fault t ~page in
      if victim >= 0 then begin
        incr evictions;
        if tracing then Obs.Sink.emit obs (Obs.Event.make ~t_us:i (Eviction { page = victim }))
      end
    end
  done;
  { refs = Array.length trace; faults = !faults; cold = !cold; evictions = !evictions }
