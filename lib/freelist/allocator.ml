type t = {
  mem : Memstore.Physical.t;
  base : int;
  len : int;
  policy : Policy.t;
  mutable rover : int;  (* next-fit resume point: a hole's offset, or Block.null *)
  holes : Hole_index.t;  (* every hole, by offset: the free set *)
  by_size : Hole_index.t option;  (* best fit only: by size, then offset *)
  live : Bytes.t;  (* one bit per word, set at each allocated block's offset *)
  mutable live_words : int;  (* sum of payload words of live blocks *)
  mutable live_blocks : int;
  mutable failures : int;
  mutable examined : int;  (* free-list nodes the last search's scan looked at *)
  searches : Metrics.Stats.t;
  obs : Obs.Sink.t;
  tracing : bool;
  clock : Sim.Clock.t option;  (* event timestamps; operation count if absent *)
  mutable ops : int;
}

let null = Block.null

let emit t kind =
  let t_us = match t.clock with Some c -> Sim.Clock.now c | None -> t.ops in
  Obs.Sink.emit t.obs (Obs.Event.make ~t_us kind)

let policy t = t.policy

let header t off = Block.read_header t.mem ~base:t.base off

(* The store holds only the tags; which blocks are holes, in address
   order, is the index's alone.  It answers the searches the simulated
   supervisor would make by walking a free list; see [find_hole]. *)
let size_key t off size = (size * (t.len + 1)) + off

(* The lowest hole at or above [off], or [null]. *)
let hole_from t off = Hole_index.first t.holes ~from:off ~needed:0

let index_add t off size =
  Hole_index.add t.holes ~key:off ~size;
  match t.by_size with
  | Some by_size -> Hole_index.add by_size ~key:(size_key t off size) ~size
  | None -> ()

let index_remove t off size =
  Hole_index.remove t.holes off;
  match t.by_size with
  | Some by_size -> Hole_index.remove by_size (size_key t off size)
  | None -> ()

(* Hole [off] becomes [off'] of [size'] where it stands in address
   order.  The size index may reorder, so its node is replaced. *)
let index_change t off size off' size' =
  Hole_index.change t.holes off ~key:off' ~size:size';
  match t.by_size with
  | Some by_size ->
    Hole_index.remove by_size (size_key t off size);
    Hole_index.add by_size ~key:(size_key t off' size') ~size:size'
  | None -> ()

(* [free] trusts a header only where this host-side bit is set: a
   freed block's header survives in memory, inside the hole it joins
   and then inside whatever is later carved from that hole. *)
let is_live t off = Char.code (Bytes.get t.live (off lsr 3)) land (1 lsl (off land 7)) <> 0

let set_live t off on =
  let byte = Char.code (Bytes.get t.live (off lsr 3)) and bit = 1 lsl (off land 7) in
  Bytes.set t.live (off lsr 3) (Char.chr (if on then byte lor bit else byte land lnot bit))

let mark_free t off size =
  Block.write_tags t.mem ~base:t.base off ~size ~allocated:false;
  index_add t off size

let create ?(obs = Obs.Sink.null) ?clock mem ~base ~len ~policy =
  assert (len >= Block.min_block);
  assert (base >= 0 && base + len <= Memstore.Physical.size mem);
  let t =
    {
      mem;
      base;
      len;
      policy;
      rover = null;
      holes = Hole_index.create ();
      by_size =
        (match policy with
         | Policy.Best_fit -> Some (Hole_index.create ())
         | Policy.First_fit | Policy.Next_fit | Policy.Worst_fit | Policy.Two_ends _ -> None);
      live = Bytes.make ((len + 7) / 8) '\000';
      live_words = 0;
      live_blocks = 0;
      failures = 0;
      examined = 0;
      searches = Metrics.Stats.create ();
      obs;
      tracing = Obs.Sink.is_active obs;
      clock;
      ops = 0;
    }
  in
  mark_free t 0 len;
  t

(* Placement: the offset of a free block whose size covers [needed],
   or [null].  The index finds the hole the linear scan of the
   simulated supervisor would pick, and [t.examined] is set to the
   number of free-list nodes that scan looks at, from the ranks of holes
   in address order: a hit's rank comes from the search that found it. *)
let lowest_fit t ~needed =
  let off = Hole_index.first t.holes ~from:0 ~needed in
  if off <> null then t.examined <- Hole_index.hit_rank t.holes + 1;
  off

let find_hole t ~take_high ~needed =
  let holes = Hole_index.length t.holes in
  t.examined <- holes;
  match t.policy with
  | Policy.First_fit -> lowest_fit t ~needed
  | Policy.Next_fit ->
    (* Scan cyclically from the rover, or from the lowest hole. *)
    let start = if t.rover <> null then t.rover else 0 in
    let skipped = Hole_index.rank t.holes start in
    let off = Hole_index.first t.holes ~from:start ~needed in
    if off <> null then begin
      t.examined <- Hole_index.hit_rank t.holes - skipped + 1;
      off
    end
    else begin
      let off = Hole_index.first t.holes ~from:0 ~needed in
      if off <> null then t.examined <- holes - skipped + Hole_index.hit_rank t.holes + 1;
      off
    end
  | Policy.Best_fit -> (
    (* Smallest sufficient size; the scan's strict [<] keeps the lowest
       offset among equals. *)
    match t.by_size with
    | Some by_size ->
      let key = Hole_index.first by_size ~from:(size_key t 0 needed) ~needed:0 in
      if key = null then null else key mod (t.len + 1)
    | None -> assert false (* create builds it for best fit *))
  | Policy.Worst_fit ->
    (* Largest size; the scan's strict [>] keeps the lowest offset. *)
    let largest = Hole_index.largest t.holes in
    if largest < needed then null else Hole_index.first t.holes ~from:0 ~needed:largest
  | Policy.Two_ends _ ->
    if take_high then Hole_index.last t.holes ~needed else lowest_fit t ~needed

(* Mark the [size] words at [off], carved from the hole at [hole],
   allocated and account for them.  A next-fit rove resumes at [rest],
   what is left of the hole, which needs no search.  After an exact fit
   ([rest] null) it resumes at the next hole above, wrapping to the
   lowest hole when there is none. *)
let grant t ~hole ~off ~size ~remainder ~rest =
  Block.write_tags t.mem ~base:t.base off ~size ~allocated:true;
  set_live t off true;
  (match t.policy with
   | Policy.Next_fit ->
     if rest <> null then t.rover <- rest
     else begin
       let next = hole_from t hole in
       t.rover <- (if next <> null then next else hole_from t 0)
     end
   | Policy.First_fit | Policy.Best_fit | Policy.Worst_fit | Policy.Two_ends _ -> ());
  t.live_words <- t.live_words + size - Block.overhead;
  t.live_blocks <- t.live_blocks + 1;
  if t.tracing then begin
    if remainder >= Block.min_block then
      emit t (Split { addr = t.base + hole; size; remainder });
    emit t (Alloc { addr = t.base + off + 1; size = size - Block.overhead })
  end;
  Some (t.base + off + 1)

let alloc t request =
  assert (request >= 1);
  t.ops <- t.ops + 1;
  let needed = Int.max Block.min_block (request + Block.overhead) in
  (* Two-ends serves large requests from the highest sufficient hole. *)
  let take_high =
    match t.policy with
    | Policy.Two_ends { small_max } -> request > small_max
    | Policy.First_fit | Policy.Next_fit | Policy.Best_fit | Policy.Worst_fit -> false
  in
  let off = find_hole t ~take_high ~needed in
  let result =
    if off = null then begin
      t.failures <- t.failures + 1;
      None
    end
    else begin
      let size = Block.size (header t off) in
      let remainder = size - needed in
      if remainder < Block.min_block then begin
        index_remove t off size;
        grant t ~hole:off ~off ~size ~remainder ~rest:null
      end
      else if take_high then begin
        (* The hole shrinks in place.  The allocation sits at its high
           end. *)
        Block.write_tags t.mem ~base:t.base off ~size:remainder ~allocated:false;
        index_change t off size off remainder;
        grant t ~hole:off ~off:(off + remainder) ~size:needed ~remainder ~rest:off
      end
      else begin
        let rem_off = off + needed in
        Block.write_tags t.mem ~base:t.base rem_off ~size:remainder ~allocated:false;
        index_change t off size rem_off remainder;
        grant t ~hole:off ~off ~size:needed ~remainder ~rest:rem_off
      end
    end
  in
  Metrics.Stats.add t.searches (float_of_int t.examined);
  result

(* The size of the live block whose payload starts at [addr]. *)
let block_size t addr =
  let off = addr - t.base - 1 in
  if off < 0 || off >= t.len then invalid_arg "Allocator: address outside region";
  if not (is_live t off) then invalid_arg "Allocator: not a live allocation";
  let tag = header t off in
  let size = Block.size tag in
  if (not (Block.allocated tag)) || size < Block.min_block || size > t.len - off then
    invalid_arg "Allocator: corrupt block";
  size

let payload_size t addr = block_size t addr - Block.overhead

let free t addr =
  let size = block_size t addr in
  let off = addr - t.base - 1 in
  set_live t off false;
  t.ops <- t.ops + 1;
  t.live_words <- t.live_words - (size - Block.overhead);
  t.live_blocks <- t.live_blocks - 1;
  if t.tracing then emit t (Free { addr; size = size - Block.overhead });
  let free_size tag = if Block.allocated tag then 0 else Block.size tag in
  let above = off + size in
  let above_size = if above < t.len then free_size (header t above) else 0 in
  let below_size = if off > 0 then free_size (Block.read_footer t.mem ~base:t.base off) else 0 in
  let new_off = off - below_size and new_size = below_size + size + above_size in
  if t.tracing && new_size > size then
    emit t (Coalesce { addr = t.base + new_off; size = new_size });
  Block.write_tags t.mem ~base:t.base new_off ~size:new_size ~allocated:false;
  if below_size > 0 then begin
    if above_size > 0 then index_remove t above above_size;
    index_change t new_off below_size new_off new_size
  end
  else if above_size > 0 then index_change t above above_size off new_size
  else index_add t off size;
  (* A rover on a hole the merge absorbs moves to the next hole above
     the merged one. *)
  let merged_end = new_off + new_size in
  if t.rover >= new_off && t.rover < merged_end then t.rover <- hole_from t merged_end

let live_words t = t.live_words

let live_blocks t = t.live_blocks

let failures t = t.failures

let search_stats t = t.searches

type walk_block = { off : int; size : int; allocated : bool }

let walk t =
  let rec loop off acc =
    if off >= t.len then List.rev acc
    else begin
      let tag = header t off in
      let size = Block.size tag in
      assert (size >= 2);
      loop (off + size) ({ off; size; allocated = Block.allocated tag } :: acc)
    end
  in
  loop 0 []

let free_block_sizes t = Hole_index.fold t.holes (fun _ size sizes -> size :: sizes) []

let free_words t = Hole_index.fold t.holes (fun _ size words -> words + size) 0

let largest_free t = Int.max 0 (Hole_index.largest t.holes - Block.overhead)

let index_visits t =
  Hole_index.visits t.holes
  + match t.by_size with Some by_size -> Hole_index.visits by_size | None -> 0

let compact t channel ~relocate =
  let blocks = walk t in
  List.iter (fun b -> if not b.allocated then index_remove t b.off b.size) blocks;
  t.rover <- null;
  Bytes.fill t.live 0 (Bytes.length t.live) '\000';
  let place dst b =
    if b.allocated then begin
      set_live t dst true;
      if b.off > dst then begin
        Memstore.Channel.move channel t.mem ~src:(t.base + b.off)
          ~dst:(t.base + dst) ~len:b.size;
        relocate (t.base + b.off + 1) (t.base + dst + 1);
        if t.tracing then
          emit t
            (Compaction_move { src = t.base + b.off; dst = t.base + dst; len = b.size })
      end;
      dst + b.size
    end
    else dst
  in
  let dst = List.fold_left place 0 blocks in
  let remainder = t.len - dst in
  if remainder >= Block.min_block then mark_free t dst remainder
  else if remainder > 0 then begin
    (* Too small to describe as a block: pad the final live block. *)
    let rec last_live_end off acc =
      if off >= dst then acc
      else
        let size = Block.size (header t off) in
        last_live_end (off + size) (off, size)
    in
    match last_live_end 0 (-1, 0) with
    | -1, _ -> assert false (* dst > 0 implies at least one live block *)
    | last_off, last_size ->
      Block.write_tags t.mem ~base:t.base last_off ~size:(last_size + remainder)
        ~allocated:true;
      t.live_words <- t.live_words + remainder
  end

(* lint: allow L4 — validate below is a documented test-facing checker that raises Failure *)
let fail fmt = Printf.ksprintf failwith fmt

(* Set bits per byte value. *)
let ones =
  let rec bits n = if n = 0 then 0 else (n land 1) + bits (n lsr 1) in
  Array.init 256 bits

let validate t =
  let blocks = walk t in
  let total = List.fold_left (fun acc b -> acc + b.size) 0 blocks in
  if total <> t.len then fail "validate: blocks cover %d of %d words" total t.len;
  List.iter
    (fun b ->
      let footer = Block.read_footer t.mem ~base:t.base (b.off + b.size) in
      if Block.size footer <> b.size || Block.allocated footer <> b.allocated then
        fail "validate: footer mismatch at %d" b.off;
      if b.size < Block.min_block then fail "validate: runt block at %d" b.off)
    blocks;
  let rec adjacent = function
    | a :: (b :: _ as rest) ->
      if (not a.allocated) && not b.allocated then
        fail "validate: uncoalesced free blocks at %d and %d" a.off b.off;
      adjacent rest
    | [ _ ] | [] -> ()
  in
  adjacent blocks;
  let check_index name index =
    match Hole_index.check index with
    | Ok () -> ()
    | Error e -> fail "validate: %s index: %s" name e
  in
  check_index "hole" t.holes;
  Option.iter (check_index "size") t.by_size;
  let walked_holes =
    List.filter_map (fun b -> if b.allocated then None else Some (b.off, b.size)) blocks
  in
  let indexed = Hole_index.fold t.holes (fun off size holes -> (off, size) :: holes) [] in
  if indexed <> walked_holes then
    fail "validate: hole index (%d holes) disagrees with walk (%d free blocks)"
      (List.length indexed) (List.length walked_holes);
  (match t.by_size with
   | Some by_size ->
     let by_offset =
       Hole_index.fold by_size
         (fun key _ holes -> (key mod (t.len + 1), key / (t.len + 1)) :: holes)
         []
     in
     if List.sort compare by_offset <> walked_holes then
       fail "validate: size index (%d holes) disagrees with walk (%d free blocks)"
         (List.length by_offset) (List.length walked_holes)
   | None -> ());
  let live = List.filter (fun b -> b.allocated) blocks in
  if List.length live <> t.live_blocks then
    fail "validate: live_blocks counter %d vs %d" t.live_blocks (List.length live);
  List.iter
    (fun b -> if not (is_live t b.off) then fail "validate: block %d not marked live" b.off)
    live;
  let marked = Bytes.fold_left (fun acc c -> acc + ones.(Char.code c)) 0 t.live in
  if marked <> List.length live then
    fail "validate: %d offsets marked live, %d blocks allocated" marked (List.length live);
  let payload = List.fold_left (fun acc b -> acc + b.size - Block.overhead) 0 live in
  if payload <> t.live_words then
    fail "validate: live_words counter %d vs %d" t.live_words payload;
  if t.rover <> null && not (List.mem_assoc t.rover walked_holes) then
    fail "validate: rover %d not a hole" t.rover
