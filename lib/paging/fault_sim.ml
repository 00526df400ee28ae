type result = Frames.result = { refs : int; faults : int; cold : int; evictions : int }

let simulate ?obs ?write ~frames ~policy trace =
  assert (frames > 0);
  let extent = ref 0 in
  for i = 0 to Array.length trace - 1 do
    let p = trace.(i) in
    if p < 0 then invalid_arg (Printf.sprintf "Fault_sim: negative page %d" p);
    if p >= !extent then extent := p + 1
  done;
  let extent = !extent in
  let set = Frames.create ~capacity:(Int.min frames extent) ~keys:extent policy in
  Frames.run ?obs ?write set trace

let run_writes ?obs ~frames ~policy ~write trace = simulate ?obs ~write ~frames ~policy trace

let run ?obs ~frames ~policy trace = simulate ?obs ~frames ~policy trace

let fault_rate r = if r.refs = 0 then 0. else float_of_int r.faults /. float_of_int r.refs
