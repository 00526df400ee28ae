type op =
  | Above of float  (** metric > v *)
  | Below of float  (** metric < v *)
  | Stall  (** metric unchanged since the previous snapshot *)
  | Delta of float  (** metric advanced by < v over the window *)

type rule = {
  name : string;
  source : string;
  op : op;
  window : int;
  escalate : bool;
}

(* --- the rule grammar: METRIC OP [VALUE] @ WINDOW [!] --- *)

let to_string r =
  let body =
    match r.op with
    | Above v -> Printf.sprintf "%s>%g@%d" r.source v r.window
    | Below v -> Printf.sprintf "%s<%g@%d" r.source v r.window
    | Stall -> Printf.sprintf "%s=@%d" r.source r.window
    | Delta v -> Printf.sprintf "%s+%g@%d" r.source v r.window
  in
  if r.escalate then body ^ "!" else body

let parse spec =
  let spec = String.trim spec in
  let fail msg = Error (Printf.sprintf "bad watchdog rule %S: %s" spec msg) in
  let escalate = String.length spec > 0 && spec.[String.length spec - 1] = '!' in
  let body = if escalate then String.sub spec 0 (String.length spec - 1) else spec in
  match String.index_opt body '@' with
  | None -> fail "missing '@WINDOW'"
  | Some at ->
    let window_s = String.sub body (at + 1) (String.length body - at - 1) in
    (match int_of_string_opt window_s with
     | None -> fail "window is not an integer"
     | Some window when window < 1 -> fail "window must be >= 1"
     | Some window ->
       let head = String.sub body 0 at in
       let split_at op_char =
         match String.index_opt head op_char with
         | Some i when i > 0 ->
           Some (String.sub head 0 i, String.sub head (i + 1) (String.length head - i - 1))
         | _ -> None
       in
       let number s =
         match float_of_string_opt (String.trim s) with
         | Some v -> Ok v
         | None -> fail "threshold is not a number"
       in
       let make source op = Ok { name = spec; source = String.trim source; op; window; escalate } in
       (match split_at '>' with
        | Some (source, v) -> Result.bind (number v) (fun v -> make source (Above v))
        | None ->
          (match split_at '<' with
           | Some (source, v) -> Result.bind (number v) (fun v -> make source (Below v))
           | None ->
             (match split_at '+' with
              | Some (source, v) -> Result.bind (number v) (fun v -> make source (Delta v))
              | None ->
                (match split_at '=' with
                 | Some (source, rest) when String.trim rest = "" -> make source Stall
                 | Some _ -> fail "stall rules take no threshold (METRIC=@K)"
                 | None -> fail "missing operator (one of > < + =)")))))

(* --- evaluation over the snapshot stream --- *)

type state = {
  rule : rule;
  mutable streak : int;  (* consecutive violating snapshots *)
  mutable total : int;  (* violating snapshots in the current episode *)
  mutable firing : bool;
  mutable ever_fired : bool;
  mutable history : float list;  (* recent values, newest first, for Stall/Delta *)
}

type t = { states : state list }

type alert = Fire of { rule : rule; snapshots : int } | Clear of { rule : rule; snapshots : int }

let create rules =
  {
    states =
      List.map
        (fun rule ->
          { rule; streak = 0; total = 0; firing = false; ever_fired = false; history = [] })
        rules;
  }

let lookup (snapshot : Telemetry.snapshot) name =
  match List.assoc_opt name snapshot.Telemetry.sn_counters with
  | Some n -> Some (float_of_int n)
  | None -> List.assoc_opt name snapshot.Telemetry.sn_gauges

let take n l =
  let rec go n = function x :: rest when n > 0 -> x :: go (n - 1) rest | _ -> [] in
  go n l

(* Whether the newest value violates the rule, updating the lookback
   history on the way.  [None] (metric absent) never violates and
   clears the history; stall/delta need enough lookback before they
   can judge. *)
let violates st value =
  match (value, st.rule.op) with
  | None, _ ->
    st.history <- [];
    false
  | Some v, op ->
    let prev = st.history in
    (* keep window+1 values: delta compares the newest against the
       value window snapshots back *)
    st.history <- take (st.rule.window + 1) (v :: prev);
    (match op with
     | Above threshold -> v > threshold
     | Below threshold -> v < threshold
     | Stall -> (match prev with old :: _ -> v = old | [] -> false)
     | Delta minimum ->
       (match List.nth_opt prev (st.rule.window - 1) with
        | Some old -> v -. old < minimum
        | None -> false))

let feed t snapshot =
  let alerts = ref [] in
  List.iter
    (fun st ->
      let v = lookup snapshot st.rule.source in
      if violates st v then begin
        st.streak <- st.streak + 1;
        st.total <- st.total + 1;
        (* Delta already aggregates its window through the lookback, so
           it fires on the first violating snapshot. *)
        let needed = match st.rule.op with Delta _ -> 1 | _ -> st.rule.window in
        if (not st.firing) && st.streak >= needed then begin
          st.firing <- true;
          st.ever_fired <- true;
          alerts := Fire { rule = st.rule; snapshots = st.streak } :: !alerts
        end
      end
      else begin
        if st.firing then begin
          st.firing <- false;
          alerts := Clear { rule = st.rule; snapshots = st.total } :: !alerts
        end;
        st.streak <- 0;
        st.total <- 0
      end)
    t.states;
  List.rev !alerts

let reset t =
  List.iter
    (fun st ->
      st.streak <- 0;
      st.total <- 0;
      st.firing <- false;
      st.history <- [])
    t.states

let firing t = List.filter_map (fun st -> if st.firing then Some st.rule else None) t.states

let tripped t =
  List.filter_map
    (fun st -> if st.rule.escalate && st.ever_fired then Some st.rule else None)
    t.states

let alert_events ~t_us alerts =
  List.map
    (fun alert ->
      match alert with
      | Fire { rule; snapshots } ->
        Event.make ~t_us (Event.Watchdog_fire { rule = rule.name; snapshots })
      | Clear { rule; snapshots } ->
        Event.make ~t_us (Event.Watchdog_clear { rule = rule.name; snapshots }))
    alerts

let parse_all specs = Json.all (List.map parse specs)

let tap ~every_us rules ~mirror ~trace =
  let chan = Telemetry.create ~every_us () in
  Telemetry.mirror chan mirror;
  let reg = Registry.create () in
  let watchdog = create rules in
  let tripped = ref None in
  Telemetry.on_capture chan (fun sn ->
      let alerts = feed watchdog sn in
      List.iter (Sink.emit trace) (alert_events ~t_us:sn.Telemetry.sn_t_us alerts);
      List.iter
        (function
          | Fire { rule; snapshots } ->
            Printf.eprintf "watchdog: %s FIRED after %d snapshot(s)%s\n%!" rule.name snapshots
              (if rule.escalate then " (escalates)" else "");
            if rule.escalate && !tripped = None then tripped := Some rule.name
          | Clear { rule; snapshots } ->
            Printf.eprintf "watchdog: %s cleared after %d snapshot(s)\n%!" rule.name snapshots)
        alerts);
  let last_t = ref 0 in
  let boundary =
    Sink.collect (fun (ev : Event.t) ->
        last_t := max !last_t ev.t_us;
        match ev.kind with Event.Run_start _ -> reset watchdog | _ -> ())
  in
  ( Sink.tee boundary (Telemetry.events_sink chan reg),
    fun () ->
      let (_ : Telemetry.snapshot) = Telemetry.capture chan ~t_us:!last_t reg in
      !tripped )
