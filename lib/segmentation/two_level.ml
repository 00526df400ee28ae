type config = {
  page_size : int;
  frames : int;
  tlb : Paging.Tlb.t option;
  policy : Paging.Replacement.t;
}

type t = {
  cfg : config;
  lengths : int array;  (* per segment, in words *)
  first : int array;  (* per segment, the key of its page 0 *)
  frames : Paging.Frames.t;  (* resident page keys, under the policy *)
  mutable refs : int;
  mutable faults : int;
  mutable map_accesses : int;
}

let create cfg ~segments =
  assert (cfg.page_size > 0 && cfg.frames > 0);
  Array.iter (fun length -> assert (length >= 1)) segments;
  let pages length = (length + cfg.page_size - 1) / cfg.page_size in
  let first = Array.make (Array.length segments) 0 in
  for i = 1 to Array.length segments - 1 do
    first.(i) <- first.(i - 1) + pages segments.(i - 1)
  done;
  {
    cfg;
    lengths = Array.copy segments;
    first;
    frames =
      Paging.Frames.create ~capacity:cfg.frames
        ~keys:(Array.fold_left (fun n length -> n + pages length) 0 segments)
        cfg.policy;
    refs = 0;
    faults = 0;
    map_accesses = 0;
  }

let touch t ~segment ~offset ~write =
  if segment < 0 || segment >= Array.length t.lengths then
    invalid_arg "Two_level: unknown segment";
  let extent = t.lengths.(segment) in
  if offset < 0 || offset >= extent then
    raise (Descriptor.Subscript_violation { segment; index = offset; extent });
  let k = t.first.(segment) + (offset / t.cfg.page_size) in
  t.refs <- t.refs + 1;
  match t.cfg.tlb with
  | Some tlb when Option.is_some (Paging.Tlb.lookup tlb k) ->
    Paging.Frames.reference t.frames ~page:k ~write
  | tlb -> (
    (* Walk the segment table, then the page table: two map accesses. *)
    t.map_accesses <- t.map_accesses + 2;
    let outcome = Paging.Frames.touch t.frames ~page:k ~write in
    if outcome <> Paging.Frames.hit then t.faults <- t.faults + 1;
    match tlb with
    | Some tlb ->
      if outcome >= 0 then Paging.Tlb.invalidate tlb ~key:outcome;
      Paging.Tlb.insert tlb ~key:k ~value:0
    | None -> ())

let run_segmented t pairs =
  Array.iter (fun (segment, offset) -> touch t ~segment ~offset ~write:false) pairs

let refs t = t.refs

let faults t = t.faults

let map_accesses t = t.map_accesses

let tlb t = t.cfg.tlb

let resident_pages t = Paging.Frames.length t.frames

let effective_access_us t ~word_us =
  if t.refs = 0 then 0.
  else
    float_of_int ((t.refs + t.map_accesses) * word_us) /. float_of_int t.refs
