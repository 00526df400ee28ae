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

type t = {
  cfg : config;
  obs : Obs.Sink.t;
  obs_on : bool;
  fault : Fault.t option;
  chans : channel array;
  mutable queue : Request.t list;  (* submitted, not yet dispatched; arrival order *)
  completions : int Sim.Heap.t;  (* finish_us -> req id, undelivered *)
  finish_of : (int, int) Hashtbl.t;  (* req id -> finish_us, undelivered *)
  failures : (int, failure) Hashtbl.t;  (* req id -> terminal failure, unconsumed *)
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
    queue = [];
    completions = Sim.Heap.create ();
    finish_of = Hashtbl.create 64;
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
  let depth = List.length t.queue in
  t.depth_sum <- t.depth_sum + depth;
  t.depth_samples <- t.depth_samples + 1;
  if depth > t.max_depth then t.max_depth <- depth

let submit ?(immune = false) t ~now ~kind ~page ~words =
  (* Arrival times are monotone in submission order: engine clocks
     are, and a late-stamped submission is clamped to the latest
     arrival, so it queues behind everything already submitted. *)
  let now = max now t.last_arrival_us in
  t.last_arrival_us <- now;
  let id = t.next_id in
  t.next_id <- id + 1;
  let r = Request.make ~immune ~id ~kind ~page ~words ~arrival_us:now () in
  t.queue <- t.queue @ [ r ];
  note_depth t;
  id

let remove_from_queue t (r : Request.t) =
  t.queue <- List.filter (fun (q : Request.t) -> q.id <> r.id) t.queue

let record_completion t (r : Request.t) ~fin =
  Sim.Heap.add t.completions fin r.id;
  Hashtbl.replace t.finish_of r.id fin;
  t.served <- t.served + 1;
  if Request.is_read r.kind then begin
    t.read_served <- t.read_served + 1;
    t.read_latency_sum <- t.read_latency_sum + (fin - r.arrival_us)
  end;
  if t.obs_on then emit t ~t_us:fin (Io_done { req = r.id; page = r.page; io = r.kind })

(* A terminal failure still completes in time (the channel was busy
   until [fin]); it is delivered like a completion, but the caller can
   see via [failure_of] / [result_us] that the data never arrived. *)
let record_failure t (r : Request.t) ~fin ~attempts =
  Sim.Heap.add t.completions fin r.id;
  Hashtbl.replace t.finish_of r.id fin;
  Hashtbl.replace t.failures r.id
    { req = r.id; page = r.page; kind = r.kind; attempts; at_us = fin };
  (match t.fault with Some f -> Fault.note_failed f | None -> ());
  if t.obs_on then
    emit t ~t_us:fin (Io_error { req = r.id; page = r.page; io = r.kind; attempts })

(* One full service of [r] on [chan] starting no earlier than [td]:
   positioning + transfer, plus fault retries and the escalation pass
   when the retry budget is exhausted (degraded-mode success, or a
   terminal failure under [Fault.Fail]).  Returns the finish time and
   the outcome. *)
let serve t chan (r : Request.t) ~td =
  let g = t.cfg.geometry in
  let escalate f ~fin ~attempt =
    match Fault.on_exhausted f with
    | Fault.Degrade ->
      Fault.note_degraded f;
      (fin + Geometry.worst_us g ~words:r.words, `Ok)
    | Fault.Fail -> (fin, `Failed attempt)
  in
  let rec go at attempt =
    let start, fin, head' = Geometry.service g ~at ~head:chan.head ~page:r.page ~words:r.words in
    if attempt = 1 && t.obs_on then
      emit t ~t_us:start (Io_start { req = r.id; page = r.page; io = r.kind });
    chan.head <- head';
    match t.fault with
    | None -> (fin, `Ok)
    | Some f ->
      (match Fault.attempt f ~immune:r.immune ~kind:r.kind with
       | Fault.Clean -> (fin, `Ok)
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

let dispatch t chan (r : Request.t) =
  Obs.Prof.span "device.dispatch" @@ fun () ->
  remove_from_queue t r;
  let td = max chan.free_at r.arrival_us in
  let fin, outcome = serve t chan r ~td in
  t.busy_us <- t.busy_us + (fin - td);
  (match outcome with
   | `Ok -> record_completion t r ~fin
   | `Failed attempts -> record_failure t r ~fin ~attempts);
  chan.free_at <- fin

(* The channel that frees first; ties go to the lowest index. *)
let best_channel t =
  let best = ref t.chans.(0) in
  Array.iter (fun c -> if c.free_at < !best.free_at then best := c) t.chans;
  !best

(* What would be dispatched next, and when.  Only requests that have
   arrived by the dispatch instant compete — SATF must not see the
   future. *)
let next_plan t =
  match t.queue with
  | [] -> None
  | q ->
    let chan = best_channel t in
    let min_arrival =
      List.fold_left (fun m (r : Request.t) -> min m r.arrival_us) max_int q
    in
    let td = max chan.free_at min_arrival in
    let candidates = List.filter (fun (r : Request.t) -> r.arrival_us <= td) q in
    let r =
      match Sched.pick t.cfg.sched ~geometry:t.cfg.geometry ~at:td ~head:chan.head candidates with
      | Some r -> r
      | None -> assert false (* candidates holds the earliest arrival by construction of td *)
    in
    Some (chan, r, td)

let pop_completion t =
  match Sim.Heap.pop t.completions with
  | None -> None
  | Some (fin, id) ->
    Hashtbl.remove t.finish_of id;
    Some (id, fin)

(* ---- synchronous consumption (single-threaded engines) ---- *)

let completion_us t id =
  match Hashtbl.find_opt t.finish_of id with
  | Some fin ->
    Hashtbl.remove t.finish_of id;
    fin
  | None ->
    let rec force () =
      match next_plan t with
      | None ->
        invalid_arg (Printf.sprintf "Device.Model.completion_us: unknown request %d" id)
      | Some (chan, r, _) ->
        dispatch t chan r;
        (match Hashtbl.find_opt t.finish_of id with
         | Some fin ->
           Hashtbl.remove t.finish_of id;
           fin
         | None -> force ())
    in
    force ()

let failure_of t id =
  match Hashtbl.find_opt t.failures id with
  | Some f ->
    Hashtbl.remove t.failures id;
    Some f
  | None -> None

let result_us t id =
  let fin = completion_us t id in
  match failure_of t id with Some f -> Error f | None -> Ok fin

let fetch t ~now ~kind ~page ~words =
  let id = submit t ~now ~kind ~page ~words in
  completion_us t id

let fetch_result ?immune t ~now ~kind ~page ~words =
  let id = submit ?immune t ~now ~kind ~page ~words in
  result_us t id

(* ---- event-loop consumption (Core.Multiprog) ---- *)

let deliver_due t ~now f =
  let progress = ref true in
  while !progress do
    progress := false;
    (match Sim.Heap.min t.completions with
     | Some (fin, _) when fin <= now ->
       (match pop_completion t with
        | Some (id, fin) ->
          f id fin;
          progress := true
        | None -> ())
     | _ -> ());
    (match next_plan t with
     | Some (chan, r, td) when td <= now -> (
       (* causality gate: a completion due before the dispatch instant
          must reach the engine first — it may wake a job whose next
          request would compete for this very dispatch. *)
       match Sim.Heap.min t.completions with
       | Some (fin, _) when fin <= td -> ()
       | _ ->
         dispatch t chan r;
         progress := true)
     | _ -> ())
  done

let rec take_completion t =
  match (Sim.Heap.min t.completions, next_plan t) with
  | None, None -> None
  | Some _, None -> pop_completion t
  | None, Some (chan, r, _) ->
    dispatch t chan r;
    take_completion t
  | Some (fin, _), Some (chan, r, td) ->
    if td < fin then begin
      dispatch t chan r;
      take_completion t
    end
    else pop_completion t

(* ---- reporting ---- *)

let pending t = List.length t.queue

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
    pending = List.length t.queue;
  }
