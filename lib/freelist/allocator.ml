type t = {
  mem : Memstore.Physical.t;
  base : int;
  len : int;
  policy : Policy.t;
  mutable free_head : int;  (* region-relative offset, Block.null if none *)
  mutable rover : int;  (* next-fit resume point *)
  holes : Hole_index.t;  (* the free list's holes by offset *)
  by_size : Hole_index.t option;  (* best fit only: by size, then offset *)
  live : Bytes.t;  (* one bit per word, set at each allocated block's offset *)
  mutable live_words : int;  (* sum of payload words of live blocks *)
  mutable live_blocks : int;
  mutable failures : int;
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

let next_free t off = Block.read_next t.mem ~base:t.base off

let prev_free t off = Block.read_prev t.mem ~base:t.base off

let set_next t off v = Block.write_next t.mem ~base:t.base off v

let set_prev t off v = Block.write_prev t.mem ~base:t.base off v

(* The host-side index mirrors every free-list edit below.  It answers
   the searches the simulated supervisor would make by walking the
   list; see [find_hole]. *)
let size_key t off size = (size * (t.len + 1)) + off

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

let unlink t off size =
  let next = next_free t off and prev = prev_free t off in
  if prev = null then t.free_head <- next else set_next t prev next;
  if next <> null then set_prev t next prev;
  if t.rover = off then t.rover <- next;
  index_remove t off size

(* Replace node [off] by node [off'] at the same list position; used when
   splitting leaves the remainder where the hole's links can be reused in
   address order. *)
let replace_node t off ~size off' ~size' =
  let next = next_free t off and prev = prev_free t off in
  set_next t off' next;
  set_prev t off' prev;
  if prev = null then t.free_head <- off' else set_next t prev off';
  if next <> null then set_prev t next off';
  if t.rover = off then t.rover <- off';
  index_remove t off size;
  index_add t off' size'

(* The new hole goes after its predecessor in address order, which the
   index finds without walking the list. *)
let insert_ordered t off size =
  let cur = Hole_index.floor t.holes off in
  if cur = null then begin
    set_next t off t.free_head;
    set_prev t off null;
    if t.free_head <> null then set_prev t t.free_head off;
    t.free_head <- off
  end
  else begin
    let next = next_free t cur in
    set_next t off next;
    set_prev t off cur;
    set_next t cur off;
    if next <> null then set_prev t next off
  end;
  index_add t off size

(* [free] trusts a header only where this host-side bit is set: a
   freed block's header survives in memory, inside the hole it joins
   and then inside whatever is later carved from that hole. *)
let is_live t off = Char.code (Bytes.get t.live (off lsr 3)) land (1 lsl (off land 7)) <> 0

let set_live t off on =
  let byte = Char.code (Bytes.get t.live (off lsr 3)) and bit = 1 lsl (off land 7) in
  Bytes.set t.live (off lsr 3) (Char.chr (if on then byte lor bit else byte land lnot bit))

let mark_free t off size =
  Block.write_tags t.mem ~base:t.base off { size; allocated = false };
  insert_ordered t off size

let create ?(obs = Obs.Sink.null) ?clock mem ~base ~len ~policy =
  assert (len >= Block.min_block);
  assert (base >= 0 && base + len <= Memstore.Physical.size mem);
  let t =
    {
      mem;
      base;
      len;
      policy;
      free_head = null;
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
   simulated supervisor would pick, and [examined] is set to the number
   of free-list nodes that scan looks at, from the ranks of holes in
   address order. *)
let lowest_fit t ~needed ~examined =
  let off = Hole_index.first t.holes ~from:0 ~needed in
  if off <> null then examined := Hole_index.rank t.holes off + 1;
  off

let find_hole t ~take_high ~needed ~examined =
  let holes = Hole_index.length t.holes in
  examined := holes;
  match t.policy with
  | Policy.First_fit -> lowest_fit t ~needed ~examined
  | Policy.Next_fit ->
    if holes = 0 then null
    else begin
      (* Scan cyclically from the rover, or from the head. *)
      let start = if t.rover <> null then t.rover else t.free_head in
      let skipped = Hole_index.rank t.holes start in
      let off = Hole_index.first t.holes ~from:start ~needed in
      if off <> null then begin
        examined := Hole_index.rank t.holes off - skipped + 1;
        off
      end
      else begin
        let off = Hole_index.first t.holes ~from:0 ~needed in
        if off <> null then examined := holes - skipped + Hole_index.rank t.holes off + 1;
        off
      end
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
    if take_high then Hole_index.last t.holes ~needed else lowest_fit t ~needed ~examined

let alloc t request =
  assert (request >= 1);
  t.ops <- t.ops + 1;
  let needed = max Block.min_block (request + Block.overhead) in
  (* Two-ends serves large requests from the highest sufficient hole. *)
  let take_high =
    match t.policy with
    | Policy.Two_ends { small_max } -> request > small_max
    | Policy.First_fit | Policy.Next_fit | Policy.Best_fit | Policy.Worst_fit -> false
  in
  let examined = ref 0 in
  let off = find_hole t ~take_high ~needed ~examined in
  let result =
    if off = null then begin
      t.failures <- t.failures + 1;
      None
    end
    else begin
      let size = (header t off).size in
      let remainder = size - needed in
      let granted_off, granted_size, rover_after =
        if remainder >= Block.min_block then begin
          if take_high then begin
            (* The hole shrinks in place; its links and position are
               unchanged.  The allocation sits at its high end. *)
            Block.write_tags t.mem ~base:t.base off
              { size = remainder; allocated = false };
            index_remove t off size;
            index_add t off remainder;
            (off + remainder, needed, off)
          end
          else begin
            let rem_off = off + needed in
            Block.write_tags t.mem ~base:t.base rem_off
              { size = remainder; allocated = false };
            replace_node t off ~size rem_off ~size':remainder;
            (off, needed, rem_off)
          end
        end
        else begin
          let succ = next_free t off in
          unlink t off size;
          (off, size, succ)
        end
      in
      Block.write_tags t.mem ~base:t.base granted_off
        { size = granted_size; allocated = true };
      set_live t granted_off true;
      (match t.policy with
       | Policy.Next_fit ->
         (* Resume the rove just past the hole we carved. *)
         t.rover <- (if rover_after <> null then rover_after else t.free_head)
       | Policy.First_fit | Policy.Best_fit | Policy.Worst_fit | Policy.Two_ends _ -> ());
      t.live_words <- t.live_words + granted_size - Block.overhead;
      t.live_blocks <- t.live_blocks + 1;
      if t.tracing then begin
        if remainder >= Block.min_block then
          emit t
            (Split { addr = t.base + off; size = granted_size; remainder });
        emit t
          (Alloc
             { addr = t.base + granted_off + 1; size = granted_size - Block.overhead })
      end;
      Some (t.base + granted_off + 1)
    end
  in
  Metrics.Stats.add t.searches (float_of_int !examined);
  result

let block_of_payload t addr =
  let off = addr - t.base - 1 in
  if off < 0 || off >= t.len then invalid_arg "Allocator: address outside region";
  if not (is_live t off) then invalid_arg "Allocator: not a live allocation";
  let tag = header t off in
  if (not tag.Block.allocated) || tag.Block.size < Block.min_block
     || tag.Block.size > t.len - off
  then invalid_arg "Allocator: corrupt block";
  (off, tag.Block.size)

let payload_size t addr =
  let _, size = block_of_payload t addr in
  size - Block.overhead

let free t addr =
  let off, size = block_of_payload t addr in
  set_live t off false;
  t.ops <- t.ops + 1;
  t.live_words <- t.live_words - (size - Block.overhead);
  t.live_blocks <- t.live_blocks - 1;
  if t.tracing then emit t (Free { addr; size = size - Block.overhead });
  let new_off = ref off and new_size = ref size in
  let after = off + size in
  if after < t.len then begin
    let next = header t after in
    if not next.Block.allocated then begin
      unlink t after next.Block.size;
      new_size := !new_size + next.Block.size
    end
  end;
  if off > 0 then begin
    let prev = Block.read_footer t.mem ~base:t.base off in
    if not prev.Block.allocated then begin
      let prev_off = off - prev.Block.size in
      unlink t prev_off prev.Block.size;
      new_off := prev_off;
      new_size := !new_size + prev.Block.size
    end
  end;
  if t.tracing && !new_size > size then
    emit t (Coalesce { addr = t.base + !new_off; size = !new_size });
  mark_free t !new_off !new_size

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
      assert (tag.Block.size >= 2);
      loop (off + tag.Block.size)
        ({ off; size = tag.Block.size; allocated = tag.Block.allocated } :: acc)
    end
  in
  loop 0 []

let free_block_sizes t = Hole_index.fold t.holes (fun _ size sizes -> size :: sizes) []

let free_words t = Hole_index.fold t.holes (fun _ size words -> words + size) 0

let largest_free t = max 0 (Hole_index.largest t.holes - Block.overhead)

let compact t channel ~relocate =
  let blocks = walk t in
  List.iter (fun b -> if not b.allocated then index_remove t b.off b.size) blocks;
  t.free_head <- null;
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
        let tag = header t off in
        last_live_end (off + tag.Block.size) (off, tag.Block.size)
    in
    match last_live_end 0 (-1, 0) with
    | -1, _ -> assert false (* dst > 0 implies at least one live block *)
    | last_off, last_size ->
      Block.write_tags t.mem ~base:t.base last_off
        { size = last_size + remainder; allocated = true };
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
      if footer.Block.size <> b.size || footer.Block.allocated <> b.allocated then
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
  let walked_holes =
    List.filter_map (fun b -> if b.allocated then None else Some (b.off, b.size)) blocks
  in
  let walked_free = List.map fst walked_holes in
  let listed_free =
    let rec loop off prev acc =
      if off = null then List.rev acc
      else begin
        if prev_free t off <> prev then fail "validate: bad prev link at %d" off;
        if prev <> null && off <= prev then fail "validate: free list not ascending at %d" off;
        if (header t off).Block.allocated then fail "validate: allocated block %d on free list" off;
        loop (next_free t off) off (off :: acc)
      end
    in
    loop t.free_head null []
  in
  if walked_free <> listed_free then
    fail "validate: free list (%d nodes) disagrees with walk (%d free blocks)"
      (List.length listed_free) (List.length walked_free);
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
  if t.rover <> null && not (List.mem t.rover listed_free) then
    fail "validate: rover %d not on free list" t.rover
