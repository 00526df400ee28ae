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
  resident : Paging.Resident.t;  (* resident page keys *)
  mutable refs : int;
  mutable faults : int;
  mutable map_accesses : int;
}

let create cfg ~segments =
  assert (cfg.page_size > 0 && cfg.frames > 0);
  Array.iter (fun length -> assert (length >= 1)) segments;
  let first = Array.make (Array.length segments) 0 in
  for i = 1 to Array.length segments - 1 do
    first.(i) <- first.(i - 1) + ((segments.(i - 1) + cfg.page_size - 1) / cfg.page_size)
  done;
  {
    cfg;
    lengths = Array.copy segments;
    first;
    resident = Paging.Resident.create ~capacity:cfg.frames;
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
  t.cfg.policy.Paging.Replacement.on_reference ~page:k ~write;
  let translated =
    match t.cfg.tlb with
    | Some tlb -> (match Paging.Tlb.lookup tlb k with Some _ -> true | None -> false)
    | None -> false
  in
  if not translated then begin
    (* Walk the segment table, then the page table: two map accesses. *)
    t.map_accesses <- t.map_accesses + 2;
    if not (Paging.Resident.mem t.resident k) then begin
      t.faults <- t.faults + 1;
      if Paging.Resident.length t.resident >= t.cfg.frames then begin
        let victim =
          t.cfg.policy.Paging.Replacement.choose_victim
            ~candidates:(Paging.Resident.elements t.resident)
        in
        Paging.Resident.replace t.resident ~victim k;
        t.cfg.policy.Paging.Replacement.on_evict ~page:victim;
        match t.cfg.tlb with
        | Some tlb -> Paging.Tlb.invalidate tlb ~key:victim
        | None -> ()
      end
      else Paging.Resident.add t.resident k;
      t.cfg.policy.Paging.Replacement.on_load ~page:k
    end;
    match t.cfg.tlb with
    | Some tlb -> Paging.Tlb.insert tlb ~key:k ~value:0
    | None -> ()
  end

let run_segmented t pairs =
  Array.iter (fun (segment, offset) -> touch t ~segment ~offset ~write:false) pairs

let refs t = t.refs

let faults t = t.faults

let map_accesses t = t.map_accesses

let tlb t = t.cfg.tlb

let resident_pages t = Paging.Resident.length t.resident

let effective_access_us t ~word_us =
  if t.refs = 0 then 0.
  else
    float_of_int ((t.refs + t.map_accesses) * word_us) /. float_of_int t.refs
