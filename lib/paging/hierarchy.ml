type promotion =
  | Always
  | After of int
  | Never

type config = {
  fast_frames : int;
  bulk_frames : int;
  fast_us : int;
  bulk_us : int;
  fetch_us : int;
  promotion : promotion;
  device : Device.Model.t option;
}

type t = {
  cfg : config;
  fast : Resident.t;
  bulk : Resident.t;
  lru : Replacement.t;  (* one recency order over both levels *)
  touches : (int, int) Hashtbl.t;  (* per bulk page: touches since arrival, absent = 0 *)
  mutable refs : int;
  mutable faults : int;
  mutable promotions : int;
  mutable fast_hits : int;
  mutable elapsed_us : int;
  mutable hard_failures : int;
}

let create cfg =
  assert (cfg.fast_frames >= 0 && cfg.bulk_frames > 0);
  {
    cfg;
    fast = Resident.create ~capacity:cfg.fast_frames;
    bulk = Resident.create ~capacity:cfg.bulk_frames;
    lru = Replacement.lru ();
    touches = Hashtbl.create 64;
    refs = 0;
    faults = 0;
    promotions = 0;
    fast_hits = 0;
    elapsed_us = 0;
    hard_failures = 0;
  }

(* Take the least recently used page out of a full level. *)
let take_lru t level =
  let page = t.lru.Replacement.choose_victim ~candidates:(Resident.elements level) in
  Resident.remove level page;
  page

(* Make room in bulk core, pushing the LRU page back to the drum. *)
let ensure_bulk_room t =
  if Resident.length t.bulk >= t.cfg.bulk_frames then begin
    let page = take_lru t t.bulk in
    Hashtbl.remove t.touches page;
    t.lru.Replacement.on_evict ~page
  end

(* Demote fast core's LRU page into bulk core; it keeps its last use. *)
let demote t =
  let page = take_lru t t.fast in
  ensure_bulk_room t;
  Resident.add t.bulk page

let promote t page =
  if t.cfg.fast_frames > 0 then begin
    Resident.remove t.bulk page;
    Hashtbl.remove t.touches page;
    if Resident.length t.fast >= t.cfg.fast_frames then demote t;
    Resident.add t.fast page;
    t.promotions <- t.promotions + 1
  end

(* Count a touch of a bulk page, then promote it if it has earned it. *)
let touch_bulk t page =
  let touches = 1 + Option.value (Hashtbl.find_opt t.touches page) ~default:0 in
  Hashtbl.replace t.touches page touches;
  match t.cfg.promotion with
  | Always -> promote t page
  | After k -> if touches >= k then promote t page
  | Never -> ()

(* The hierarchy sits below the layers with a redundant copy to fall
   back on, so its recovery policy is Surface: a terminal drum failure
   leaves the page absent and is handed to the caller, who decides
   (the wall-clock cost of the failed attempts is still charged). *)
let touch_result t ~page =
  t.refs <- t.refs + 1;
  t.lru.Replacement.on_reference ~page ~write:false;
  if Resident.mem t.fast page then begin
    t.fast_hits <- t.fast_hits + 1;
    t.elapsed_us <- t.elapsed_us + t.cfg.fast_us;
    Ok ()
  end
  else if Resident.mem t.bulk page then begin
    t.elapsed_us <- t.elapsed_us + t.cfg.bulk_us;
    touch_bulk t page;
    Ok ()
  end
  else begin
    (* Drum fault: always lands in the bulk level first. *)
    t.faults <- t.faults + 1;
    let fetched =
      match t.cfg.device with
      | None ->
        t.elapsed_us <- t.elapsed_us + t.cfg.fetch_us + t.cfg.bulk_us;
        Ok ()
      | Some m ->
        (match
           Device.Model.fetch_result m ~now:t.elapsed_us
             ~kind:Device.Request.Demand ~page ~words:0
         with
         | Ok fin ->
           t.elapsed_us <- fin + t.cfg.bulk_us;
           Ok ()
         | Error f ->
           t.hard_failures <- t.hard_failures + 1;
           t.elapsed_us <- max t.elapsed_us f.at_us;
           Error (Resilience.Failure.of_device f))
    in
    match fetched with
    | Error _ as e -> e
    | Ok () ->
      ensure_bulk_room t;
      Resident.add t.bulk page;
      t.lru.Replacement.on_load ~page;
      touch_bulk t page;
      Ok ()
  end

let touch t ~page =
  match touch_result t ~page with
  | Ok () -> ()
  (* lint: allow L4 — legacy wrapper; unreachable without a Fail-escalation device, documented to raise otherwise *)
  | Error f -> failwith (Resilience.Failure.to_string f)

let run t trace = Array.iter (fun page -> touch t ~page) trace

let refs t = t.refs

let faults t = t.faults

let promotions t = t.promotions

let fast_hits t = t.fast_hits

let hard_failures t = t.hard_failures

let elapsed_us t = t.elapsed_us

let effective_access_us t =
  if t.refs = 0 then 0. else float_of_int t.elapsed_us /. float_of_int t.refs
