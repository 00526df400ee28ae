type config = {
  small_page : int;
  large_page : int;
  small_frames : int;
  large_frames : int;
}

(* One frame pool with LRU replacement over packed page keys. *)
type pool = {
  capacity : int;
  resident : Paging.Resident.t;
  lru : Paging.Replacement.t;
  mutable faults : int;
}

type seg = { length : int }

type t = {
  cfg : config;
  small : pool;
  large : pool;
  mutable segments : seg array;
  mutable seg_count : int;
  mutable refs : int;
}

let key_bits = 24

let create cfg =
  assert (cfg.small_page > 0 && cfg.large_page mod cfg.small_page = 0);
  assert (cfg.small_frames >= 0 && cfg.large_frames >= 0);
  let pool capacity =
    {
      capacity;
      resident = Paging.Resident.create ~capacity;
      lru = Paging.Replacement.lru ();
      faults = 0;
    }
  in
  {
    cfg;
    small = pool cfg.small_frames;
    large = pool cfg.large_frames;
    segments = [||];
    seg_count = 0;
    refs = 0;
  }

let add_segment t ~length =
  assert (length >= 1);
  if t.seg_count >= Array.length t.segments then begin
    let grown = Array.make (max 8 (2 * Array.length t.segments)) { length = 0 } in
    Array.blit t.segments 0 grown 0 t.seg_count;
    t.segments <- grown
  end;
  let id = t.seg_count in
  t.seg_count <- t.seg_count + 1;
  t.segments.(id) <- { length };
  id

(* A pool of no frames faults on every reference and holds nothing. *)
let pool_touch pool key =
  if pool.capacity = 0 then pool.faults <- pool.faults + 1
  else begin
    pool.lru.Paging.Replacement.on_reference ~page:key ~write:false;
    if not (Paging.Resident.mem pool.resident key) then begin
      pool.faults <- pool.faults + 1;
      if Paging.Resident.length pool.resident >= pool.capacity then begin
        let victim =
          pool.lru.Paging.Replacement.choose_victim
            ~candidates:(Paging.Resident.elements pool.resident)
        in
        Paging.Resident.remove pool.resident victim;
        pool.lru.Paging.Replacement.on_evict ~page:victim
      end;
      Paging.Resident.add pool.resident key;
      pool.lru.Paging.Replacement.on_load ~page:key
    end
  end

(* A segment's body (whole large pages) then its tail (small pages). *)
let body_words t length = length / t.cfg.large_page * t.cfg.large_page

let touch t ~segment ~offset ~write =
  ignore write;
  if segment < 0 || segment >= t.seg_count then invalid_arg "Dual_pager: unknown segment";
  let s = t.segments.(segment) in
  if offset < 0 || offset >= s.length then
    raise (Descriptor.Subscript_violation { segment; index = offset; extent = s.length });
  t.refs <- t.refs + 1;
  let body = body_words t s.length in
  if offset < body then
    pool_touch t.large ((segment lsl key_bits) lor (offset / t.cfg.large_page))
  else
    pool_touch t.small
      ((segment lsl key_bits) lor ((offset - body) / t.cfg.small_page))

let refs t = t.refs

let small_faults t = t.small.faults

let large_faults t = t.large.faults

let faults t = t.small.faults + t.large.faults

let resident_words t =
  (Paging.Resident.length t.small.resident * t.cfg.small_page)
  + (Paging.Resident.length t.large.resident * t.cfg.large_page)

let resident_useful_words t =
  let useful = ref 0 in
  let count pool page_words tail_of =
    Array.iter
      (fun key ->
        let segment = key lsr key_bits and page = key land ((1 lsl key_bits) - 1) in
        let s = t.segments.(segment) in
        let base = tail_of s + (page * page_words) in
        useful := !useful + min page_words (s.length - base))
      (Paging.Resident.elements pool.resident)
  in
  count t.large t.cfg.large_page (fun _ -> 0);
  count t.small t.cfg.small_page (fun s -> body_words t s.length);
  !useful

let core_words t =
  (t.cfg.small_frames * t.cfg.small_page) + (t.cfg.large_frames * t.cfg.large_page)
