type config = {
  small_page : int;
  large_page : int;
  small_frames : int;
  large_frames : int;
}

(* One frame pool with LRU replacement.  Its pages are numbered in one
   dense key space, segment by segment. *)
type pool = {
  capacity : int;
  frames : Paging.Frames.t;
  first : int array;  (* per segment, the key of its first page here *)
  mutable faults : int;
}

type t = {
  cfg : config;
  lengths : int array;  (* per segment, in words *)
  small : pool;
  large : pool;
  tail_words : int array;  (* per small page, its words inside the segment *)
  mutable refs : int;
}

(* A segment's body (whole large pages) then its tail (small pages). *)
let body_words cfg length = length / cfg.large_page * cfg.large_page

let create cfg ~segments =
  assert (cfg.small_page > 0 && cfg.large_page mod cfg.small_page = 0);
  assert (cfg.small_frames >= 0 && cfg.large_frames >= 0);
  Array.iter (fun length -> assert (length >= 1)) segments;
  let tail length = length - body_words cfg length in
  let small_pages length = (tail length + cfg.small_page - 1) / cfg.small_page in
  let pool capacity pages =
    let first = Array.make (Array.length segments) 0 in
    for i = 1 to Array.length segments - 1 do
      first.(i) <- first.(i - 1) + pages segments.(i - 1)
    done;
    {
      capacity;
      frames =
        Paging.Frames.create ~capacity
          ~keys:(Array.fold_left (fun n length -> n + pages length) 0 segments)
          (Paging.Replacement.lru ());
      first;
      faults = 0;
    }
  in
  {
    cfg;
    lengths = Array.copy segments;
    small = pool cfg.small_frames small_pages;
    large = pool cfg.large_frames (fun length -> body_words cfg length / cfg.large_page);
    tail_words =
      Array.concat
        (Array.to_list
           (Array.map
              (fun length ->
                Array.init (small_pages length) (fun p ->
                    min cfg.small_page (tail length - (p * cfg.small_page))))
              segments));
    refs = 0;
  }

(* A pool of no frames faults on every reference, holds nothing and
   never asks its LRU. *)
let pool_touch pool key =
  if pool.capacity = 0 || Paging.Frames.touch pool.frames ~page:key ~write:false <> Paging.Frames.hit
  then pool.faults <- pool.faults + 1

let touch t ~segment ~offset ~write =
  ignore write;
  if segment < 0 || segment >= Array.length t.lengths then
    invalid_arg "Dual_pager: unknown segment";
  let extent = t.lengths.(segment) in
  if offset < 0 || offset >= extent then
    raise (Descriptor.Subscript_violation { segment; index = offset; extent });
  t.refs <- t.refs + 1;
  let body = body_words t.cfg extent in
  if offset < body then
    pool_touch t.large (t.large.first.(segment) + (offset / t.cfg.large_page))
  else
    pool_touch t.small (t.small.first.(segment) + ((offset - body) / t.cfg.small_page))

let refs t = t.refs

let small_faults t = t.small.faults

let large_faults t = t.large.faults

let faults t = t.small.faults + t.large.faults

let resident_words t =
  (Paging.Frames.length t.small.frames * t.cfg.small_page)
  + (Paging.Frames.length t.large.frames * t.cfg.large_page)

(* Large pages lie wholly inside their segment's body. *)
let resident_useful_words t =
  Array.fold_left
    (fun acc key -> acc + t.tail_words.(key))
    (Paging.Frames.length t.large.frames * t.cfg.large_page)
    (Paging.Frames.elements t.small.frames)

let core_words t =
  (t.cfg.small_frames * t.cfg.small_page) + (t.cfg.large_frames * t.cfg.large_page)
