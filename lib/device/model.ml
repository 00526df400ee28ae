type config = {
  geometry : Geometry.t;
  sched : Sched.t;
  channels : int;
  fault : Fault.config option;
}

let config ?(sched = Sched.Fifo) ?(channels = 1) ?fault geometry =
  assert (channels >= 1);
  { geometry; sched; channels; fault }

type channel = { mutable free_at : int; mutable head : int }

type failure = {
  req : int;
  page : int;
  kind : Request.kind;
  attempts : int;
  at_us : int;
}

(* Fills the queue array's unused slots; never read. *)
let vacant = Request.make ~id:0 ~kind:Demand ~page:0 ~words:0 ~arrival_us:0 ()

type t = {
  cfg : config;
  obs : Obs.Sink.t;
  obs_on : bool;
  fault : Fault.t option;
  chans : channel array;
  (* Submitted, not yet dispatched: [queue.(first)] to
     [queue.(first + depth - 1)], oldest first.  Arrivals are clamped
     monotone and ids only increase, so index order is the
     (arrival_us, id) tie-break order. *)
  mutable queue : Request.t array;
  mutable first : int;
  mutable depth : int;
  (* The next dispatch, while [planned]: channel [plan_chan] serves
     [queue.(plan_index)] from [plan_td].  A submit or a dispatch
     clears [planned]; nothing else changes the plan. *)
  mutable planned : bool;
  mutable plan_chan : int;
  mutable plan_index : int;
  mutable plan_td : int;
  (* Served by [deliver_due] or [take_completion], not yet delivered:
     each request by its finish time, and the failures among them. *)
  completions : Request.t Sim.Heap.t;
  failures : (int, failure) Hashtbl.t;  (* req id -> terminal failure *)
  mutable next_id : int;
  mutable last_arrival_us : int;
  mutable served : int;
  mutable read_served : int;
  mutable read_latency_sum : int;
  mutable busy_us : int;
  mutable depth_sum : int;
  mutable depth_samples : int;
  mutable max_depth : int;
}

type stats = {
  served : int;
  read_served : int;
  mean_read_latency_us : float;
  mean_queue_depth : float;
  max_queue_depth : int;
  busy_us : int;
  injected : int;
  write_injected : int;
  permanent : int;
  retries : int;
  degraded : int;
  failed : int;
  write_rolls_skipped : int;
  pending : int;
}

let create ?(obs = Obs.Sink.null) cfg =
  {
    cfg;
    obs;
    obs_on = Obs.Sink.is_active obs;
    fault = Option.map Fault.create cfg.fault;
    chans = Array.init cfg.channels (fun _ -> { free_at = 0; head = 0 });
    queue = Array.make 16 vacant;
    first = 0;
    depth = 0;
    planned = false;
    plan_chan = 0;
    plan_index = 0;
    plan_td = 0;
    completions = Sim.Heap.create ();
    failures = Hashtbl.create 8;
    next_id = 0;
    last_arrival_us = 0;
    served = 0;
    read_served = 0;
    read_latency_sum = 0;
    busy_us = 0;
    depth_sum = 0;
    depth_samples = 0;
    max_depth = 0;
  }

let label t =
  Printf.sprintf "%s/%s/%dch" (Geometry.label t.cfg.geometry) (Sched.name t.cfg.sched)
    t.cfg.channels

let emit t ~t_us kind = Obs.Sink.emit t.obs (Obs.Event.make ~t_us kind)

let note_depth t =
  t.depth_sum <- t.depth_sum + t.depth;
  t.depth_samples <- t.depth_samples + 1;
  if t.depth > t.max_depth then t.max_depth <- t.depth

(* Append [r] after the newest request.  With no room past the end, the
   queue slides down to index 0, into an array twice the size if it
   fills more than half the old one: amortised O(1), and the array is
   sized by the deepest queue, not by the number of requests. *)
let enqueue t r =
  let cap = Array.length t.queue in
  if t.first + t.depth = cap then begin
    let q = if 2 * t.depth > cap then Array.make (2 * cap) vacant else t.queue in
    Array.blit t.queue t.first q 0 t.depth;
    t.queue <- q;
    t.first <- 0
  end;
  t.queue.(t.first + t.depth) <- r;
  t.depth <- t.depth + 1

(* Take [queue.(i)] out by shifting the older requests up one slot: no
   more work than the choice that found [i]. *)
let remove t i =
  let r = t.queue.(i) in
  Array.blit t.queue t.first t.queue (t.first + 1) (i - t.first);
  t.first <- t.first + 1;
  t.depth <- t.depth - 1;
  r

let submit ?(immune = false) t ~now ~kind ~page ~words =
  (* Arrival times are monotone in submission order: engine clocks
     are, and a late-stamped submission is clamped to the latest
     arrival, so it queues behind everything already submitted. *)
  let now = Int.max now t.last_arrival_us in
  t.last_arrival_us <- now;
  let id = t.next_id in
  t.next_id <- id + 1;
  enqueue t (Request.make ~immune ~id ~kind ~page ~words ~arrival_us:now ());
  t.planned <- false;
  note_depth t;
  id

(* Count and trace a served request; its answer is its finish time. *)
let completed (t : t) (r : Request.t) ~fin =
  t.served <- t.served + 1;
  if Request.is_read r.kind then begin
    t.read_served <- t.read_served + 1;
    t.read_latency_sum <- t.read_latency_sum + (fin - r.arrival_us)
  end;
  if t.obs_on then emit t ~t_us:fin (Io_done { req = r.id; page = r.page; io = r.kind });
  Ok fin

(* A terminal failure still completes in time: the channel was busy
   until [fin], and the answer says the data never arrived. *)
let failed t (r : Request.t) ~fin ~attempts =
  (match t.fault with Some f -> Fault.note_failed f | None -> ());
  if t.obs_on then
    emit t ~t_us:fin (Io_error { req = r.id; page = r.page; io = r.kind; attempts });
  Error { req = r.id; page = r.page; kind = r.kind; attempts; at_us = fin }

(* One full service of [r] on [chan] starting no earlier than [td]:
   positioning + transfer, plus fault retries and the escalation pass
   when the retry budget is exhausted (degraded-mode success, or a
   terminal failure under [Fault.Fail]).  Returns the outcome: the
   finish time, or the failure. *)
let serve t chan (r : Request.t) ~td =
  let g = t.cfg.geometry in
  let escalate f ~fin ~attempt =
    match Fault.on_exhausted f with
    | Fault.Degrade ->
      Fault.note_degraded f;
      completed t r ~fin:(fin + Geometry.worst_us g ~words:r.words)
    | Fault.Fail -> failed t r ~fin ~attempts:attempt
  in
  let rec go at attempt =
    let start, fin, head' = Geometry.service g ~at ~head:chan.head ~page:r.page ~words:r.words in
    if attempt = 1 && t.obs_on then
      emit t ~t_us:start (Io_start { req = r.id; page = r.page; io = r.kind });
    chan.head <- head';
    match t.fault with
    | None -> completed t r ~fin
    | Some f ->
      (match Fault.attempt f ~immune:r.immune ~kind:r.kind with
       | Fault.Clean -> completed t r ~fin
       | Fault.Transient ->
         if t.obs_on then emit t ~t_us:fin (Io_retry { req = r.id; attempt });
         if attempt <= Fault.max_retries f then begin
           Fault.note_retry f;
           go fin (attempt + 1)
         end
         else escalate f ~fin ~attempt
       | Fault.Permanent ->
         (* beyond retry: no point burning the budget *)
         if t.obs_on then emit t ~t_us:fin (Io_retry { req = r.id; attempt });
         escalate f ~fin ~attempt)
  in
  go td 1

(* The channel that frees first; ties go to the lowest index. *)
let best_channel t =
  let best = ref 0 in
  for c = 1 to Array.length t.chans - 1 do
    if t.chans.(c).free_at < t.chans.(!best).free_at then best := c
  done;
  !best

(* Is a request waiting?  If so, the plan fields say what would be
   dispatched next, and when, recomputed only if a submit or a dispatch
   made them stale.  Only requests that have arrived by the dispatch
   instant compete — SATF must not see the future — and they are a
   prefix of the queue. *)
let plan t =
  if t.depth > 0 && not t.planned then begin
    let c = best_channel t in
    let chan = t.chans.(c) in
    let td = Int.max chan.free_at t.queue.(t.first).arrival_us in
    t.plan_chan <- c;
    t.plan_td <- td;
    t.plan_index <-
      Sched.pick t.cfg.sched ~geometry:t.cfg.geometry ~at:td ~head:chan.head t.queue
        ~first:t.first ~last:(t.first + t.depth);
    t.planned <- true
  end;
  t.depth > 0

(* Serve the planned request from the plan's dispatch instant and
   return its outcome.  That instant is [max chan.free_at r.arrival_us]:
   when the oldest arrival is later than the channel's free time, every
   candidate arrived at that instant. *)
let dispatch t =
  Obs.Prof.span "device.dispatch" @@ fun () ->
  let chan = t.chans.(t.plan_chan) and td = t.plan_td in
  let r = remove t t.plan_index in
  t.planned <- false;
  let outcome = serve t chan r ~td in
  let fin = match outcome with Ok fin -> fin | Error f -> f.at_us in
  t.busy_us <- t.busy_us + (fin - td);
  chan.free_at <- fin;
  outcome

(* ---- the synchronous call ---- *)

(* Dispatch in policy order until request [id] is served.  Nothing is
   kept of the requests served on the way: no one waits for them. *)
let rec serve_until t id =
  let (_ : bool) = plan t in  (* [id] waits in the queue until served *)
  let mine = t.queue.(t.plan_index).id = id in
  let outcome = dispatch t in
  if mine then outcome else serve_until t id

let fetch_result ?immune t ~now ~kind ~page ~words =
  serve_until t (submit ?immune t ~now ~kind ~page ~words)

(* ---- deliveries (event-loop engines) ---- *)

(* Dispatch the planned request and hold its answer for delivery. *)
let dispatch_held t =
  let r = t.queue.(t.plan_index) in
  match dispatch t with
  | Ok fin -> Sim.Heap.add t.completions fin r
  | Error f ->
    Sim.Heap.add t.completions f.at_us r;
    Hashtbl.replace t.failures r.id f

(* Is an undelivered completion due by [by]? *)
let due t ~by = (not (Sim.Heap.is_empty t.completions)) && Sim.Heap.min_key t.completions <= by

(* Hand the earliest held answer to [f], forgetting it; false if none is
   held. *)
let deliver t f =
  match Sim.Heap.pop t.completions with
  | None -> false
  | Some (fin, (r : Request.t)) ->
    let failure = Hashtbl.find_opt t.failures r.id in
    if Option.is_some failure then Hashtbl.remove t.failures r.id;
    f ~id:r.id ~page:r.page ~finish_us:fin failure;
    true

let deliver_due t ~now f =
  let progress = ref true in
  while !progress do
    progress := false;
    if due t ~by:now then progress := deliver t f;
    (* causality gate: a completion due before the dispatch instant
       must reach the engine first — it may wake a job whose next
       request would compete for this very dispatch. *)
    if plan t && t.plan_td <= now && not (due t ~by:t.plan_td) then begin
      dispatch_held t;
      progress := true
    end
  done

let rec take_completion t f =
  if plan t && (Sim.Heap.is_empty t.completions || t.plan_td < Sim.Heap.min_key t.completions)
  then begin
    dispatch_held t;
    take_completion t f
  end
  else deliver t f

(* ---- reporting ---- *)

let pending t = t.depth

let stats (t : t) : stats =
  {
    served = t.served;
    read_served = t.read_served;
    mean_read_latency_us =
      (if t.read_served = 0 then 0.
       else float_of_int t.read_latency_sum /. float_of_int t.read_served);
    mean_queue_depth =
      (if t.depth_samples = 0 then 0.
       else float_of_int t.depth_sum /. float_of_int t.depth_samples);
    max_queue_depth = t.max_depth;
    busy_us = t.busy_us;
    injected = (match t.fault with None -> 0 | Some f -> Fault.injected f);
    write_injected = (match t.fault with None -> 0 | Some f -> Fault.write_injected f);
    permanent = (match t.fault with None -> 0 | Some f -> Fault.permanent_count f);
    retries = (match t.fault with None -> 0 | Some f -> Fault.retried f);
    degraded = (match t.fault with None -> 0 | Some f -> Fault.degraded f);
    failed = (match t.fault with None -> 0 | Some f -> Fault.failed f);
    write_rolls_skipped =
      (match t.fault with None -> 0 | Some f -> Fault.write_rolls_skipped f);
    pending = t.depth;
  }
