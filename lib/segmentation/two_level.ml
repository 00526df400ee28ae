type config = {
  page_size : int;
  frames : int;
  tlb : Paging.Tlb.t option;
  policy : Paging.Replacement.t;
}

(* Pages are identified across segments by packed keys. *)
let key_bits = 24

let key ~segment ~page = (segment lsl key_bits) lor page

type seg = { mutable length : int }

type t = {
  cfg : config;
  mutable segments : seg array;
  mutable seg_count : int;
  resident : Paging.Resident.t;  (* resident page keys *)
  mutable refs : int;
  mutable faults : int;
  mutable map_accesses : int;
}

let create cfg =
  assert (cfg.page_size > 0 && cfg.frames > 0);
  {
    cfg;
    segments = [||];
    seg_count = 0;
    resident = Paging.Resident.create ~capacity:cfg.frames;
    refs = 0;
    faults = 0;
    map_accesses = 0;
  }

let add_segment t ~length =
  assert (length >= 1);
  assert (length < 1 lsl key_bits * t.cfg.page_size);
  if t.seg_count >= Array.length t.segments then begin
    let grown = Array.make (max 8 (2 * Array.length t.segments)) { length = 0 } in
    Array.blit t.segments 0 grown 0 t.seg_count;
    t.segments <- grown
  end;
  let id = t.seg_count in
  t.seg_count <- t.seg_count + 1;
  t.segments.(id) <- { length };
  id

let seg t segment =
  if segment < 0 || segment >= t.seg_count then invalid_arg "Two_level: unknown segment";
  t.segments.(segment)

let segment_length t segment = (seg t segment).length

let grow_segment t ~segment ~new_length =
  let s = seg t segment in
  if new_length <= s.length then invalid_arg "Two_level.grow_segment: not larger";
  s.length <- new_length

let touch t ~segment ~offset ~write =
  let s = seg t segment in
  if offset < 0 || offset >= s.length then
    raise (Descriptor.Subscript_violation { segment; index = offset; extent = s.length });
  let page = offset / t.cfg.page_size in
  let k = key ~segment ~page in
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
        Paging.Resident.remove t.resident victim;
        t.cfg.policy.Paging.Replacement.on_evict ~page:victim;
        match t.cfg.tlb with
        | Some tlb -> Paging.Tlb.invalidate tlb ~key:victim
        | None -> ()
      end;
      Paging.Resident.add t.resident k;
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
