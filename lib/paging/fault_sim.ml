type result = { refs : int; faults : int; cold : int; evictions : int }

(* Page states, one byte per page number. *)
let untouched = '\000'

let touched = '\001'

let resident = '\002'

let run_writes ?(obs = Obs.Sink.null) ~frames ~policy ~write trace =
  assert (frames > 0);
  let extent = ref 0 in
  for i = 0 to Array.length trace - 1 do
    let p = trace.(i) in
    if p < 0 then invalid_arg (Printf.sprintf "Fault_sim: negative page %d" p);
    if p >= !extent then extent := p + 1
  done;
  let extent = !extent in
  let tracing = Obs.Sink.is_active obs in
  let state = Bytes.make extent untouched in
  (* Once full, the set's array is the candidate array itself. *)
  let set = Resident.create ~capacity:(Int.min frames extent) in
  let faults = ref 0 and cold = ref 0 and evictions = ref 0 in
  for i = 0 to Array.length trace - 1 do
    let page = trace.(i) in
    policy.Replacement.on_reference ~page ~write:(write i);
    if Bytes.get state page <> resident then begin
      incr faults;
      if tracing then Obs.Sink.emit obs (Obs.Event.make ~t_us:i (Fault { page }));
      if Bytes.get state page = untouched then begin
        incr cold;
        if tracing then Obs.Sink.emit obs (Obs.Event.make ~t_us:i (Cold_fault { page }))
      end;
      if Resident.length set >= frames then begin
        let victim = policy.Replacement.choose_victim ~candidates:(Resident.elements set) in
        assert (victim >= 0 && victim < extent && Bytes.get state victim = resident);
        Resident.replace set ~victim page;
        Bytes.set state victim touched;
        policy.Replacement.on_evict ~page:victim;
        incr evictions;
        if tracing then
          Obs.Sink.emit obs (Obs.Event.make ~t_us:i (Eviction { page = victim }))
      end
      else Resident.add set page;
      Bytes.set state page resident;
      policy.Replacement.on_load ~page
    end
  done;
  { refs = Array.length trace; faults = !faults; cold = !cold; evictions = !evictions }

let run ?obs ~frames ~policy trace =
  run_writes ?obs ~frames ~policy ~write:(fun _ -> false) trace

let fault_rate r = if r.refs = 0 then 0. else float_of_int r.faults /. float_of_int r.refs
