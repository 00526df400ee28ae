type t = {
  mem : Memstore.Physical.t;
  base : int;
  len : int;
  mutable frontier : int;
  mutable chain : int;  (* offset of first inactive block, -1 if none *)
  active : (int, int) Hashtbl.t;  (* block offset -> total size *)
  mutable combines : int;
  searches : Metrics.Stats.t;
}

let nil = -1

let min_inactive = 2  (* size word + chain link word *)

let create mem ~base ~len =
  assert (len >= min_inactive);
  assert (base >= 0 && base + len <= Memstore.Physical.size mem);
  {
    mem;
    base;
    len;
    frontier = 0;
    chain = nil;
    active = Hashtbl.create 64;
    combines = 0;
    searches = Metrics.Stats.create ();
  }

let read t off = Memstore.Physical.read_int t.mem (t.base + off)

let write_word t off v = Memstore.Physical.write_int t.mem (t.base + off) v

let block_size t off = read t off

let next_inactive t off = read t (off + 1)

let set_inactive t off ~size ~next =
  write_word t off size;
  write_word t (off + 1) next

let payload_base off = off + 1

let back_reference t off =
  if not (Hashtbl.mem t.active off) then invalid_arg "Rice_chain: not an active block";
  read t off

let chain_blocks t =
  let rec loop off acc =
    if off = nil then List.rev acc else loop (next_inactive t off) ((off, block_size t off) :: acc)
  in
  loop t.chain []

(* First-fit search of the inactive chain; takes the requested space out
   of the found block, the leftover replacing it in the chain. *)
let take_from_chain t total ~examined =
  let rec loop prev off =
    if off = nil then None
    else begin
      incr examined;
      let size = block_size t off in
      let next = next_inactive t off in
      if size >= total then begin
        let leftover = size - total in
        let replacement =
          if leftover >= min_inactive then begin
            let rest = off + total in
            set_inactive t rest ~size:leftover ~next;
            rest
          end
          else next
        in
        (if prev = nil then t.chain <- replacement
         else write_word t (prev + 1) replacement);
        let granted = if leftover >= min_inactive then total else size in
        Some (off, granted)
      end
      else loop off next
    end
  in
  loop nil t.chain

(* Combine adjacent inactive blocks, and reclaim a block that abuts the
   frontier back into never-allocated space. *)
let combine t =
  t.combines <- t.combines + 1;
  let blocks = List.sort compare (chain_blocks t) in
  let rec merge = function
    | (o1, s1) :: (o2, s2) :: rest when o1 + s1 = o2 -> merge ((o1, s1 + s2) :: rest)
    | b :: rest -> b :: merge rest
    | [] -> []
  in
  let merged = merge blocks in
  let merged =
    match List.rev merged with
    | (o, s) :: rest when o + s = t.frontier ->
      t.frontier <- o;
      List.rev rest
    | _ -> merged
  in
  t.chain <- nil;
  List.iter (fun (o, s) -> set_inactive t o ~size:s ~next:nil) merged;
  let rec link = function
    | (o1, _) :: ((o2, _) :: _ as rest) ->
      write_word t (o1 + 1) o2;
      link rest
    | [ _ ] | [] -> ()
  in
  (match merged with (o, _) :: _ -> t.chain <- o | [] -> ());
  link merged

let alloc t ~payload ~codeword =
  assert (payload >= 1);
  let total = max min_inactive (payload + 1) in
  let examined = ref 0 in
  let claim (off, granted) =
    Hashtbl.replace t.active off granted;
    write_word t off codeword;
    Some off
  in
  let result =
    if t.len - t.frontier >= total then begin
      (* Sequential initial placement. *)
      let off = t.frontier in
      t.frontier <- t.frontier + total;
      claim (off, total)
    end
    else begin
      match take_from_chain t total ~examined with
      | Some got -> claim got
      | None ->
        combine t;
        (match take_from_chain t total ~examined with
         | Some got -> claim got
         | None ->
           if t.len - t.frontier >= total then begin
             let off = t.frontier in
             t.frontier <- t.frontier + total;
             claim (off, total)
           end
           else None)
    end
  in
  Metrics.Stats.add t.searches (float_of_int !examined);
  result

let free t off =
  match Hashtbl.find_opt t.active off with
  | None -> invalid_arg "Rice_chain.free: not an active block"
  | Some size ->
    Hashtbl.remove t.active off;
    set_inactive t off ~size ~next:t.chain;
    t.chain <- off

let frontier t = t.frontier

let combines t = t.combines

let chain_search_stats t = t.searches

let validate t =
  let pieces =
    (* lint: allow L3 — pieces are sorted before tiling *)
    Hashtbl.fold (fun off size acc -> (off, size) :: acc) t.active []
    @ chain_blocks t
  in
  let sorted = List.sort compare pieces in
  let rec tile expected = function
    | [] ->
      if expected <> t.frontier then
        (* lint: allow L4 — validate is a documented test-facing checker that raises Failure *)
        failwith
          (Printf.sprintf "Rice_chain.validate: blocks end at %d, frontier %d" expected
             t.frontier)
    | (off, size) :: rest ->
      if off <> expected then
        (* lint: allow L4 — validate is a documented test-facing checker that raises Failure *)
        failwith (Printf.sprintf "Rice_chain.validate: gap/overlap at %d (expected %d)" off expected);
      (* lint: allow L4 — validate is a documented test-facing checker that raises Failure *)
      if size < min_inactive then failwith "Rice_chain.validate: runt block";
      tile (off + size) rest
  in
  tile 0 sorted
