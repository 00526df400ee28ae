type config = {
  core : Memstore.Level.t;
  backing : Memstore.Level.t;
  placement : Freelist.Policy.t;
  compact_on_failure : bool;
  device : Device.Model.t option;
}

type program = {
  prog_name : string;
  size : int;
  registers : Relocation.t;
  backing_addr : int;
  mutable resident : bool;
  mutable modified : bool;
  mutable last_used : int;
}

type id = int

type t = {
  cfg : config;
  allocator : Freelist.Allocator.t;
  channel : Memstore.Channel.t;
  mutable programs : program array;
  mutable count : int;
  mutable backing_frontier : int;
  mutable tick : int;
  mutable swap_ins : int;
  mutable swap_outs : int;
  mutable words_swapped : int;
  mutable compactions : int;
  mutable mirror_writes : int;
  mutable swap_in_failures : int;
}

let create cfg =
  let core_words = Memstore.Level.size cfg.core in
  {
    cfg;
    allocator =
      Freelist.Allocator.create
        (Memstore.Level.physical cfg.core)
        ~base:0 ~len:core_words ~policy:cfg.placement;
    channel = Memstore.Channel.create (Memstore.Level.clock cfg.core) ~word_ns:500;
    programs = [||];
    count = 0;
    backing_frontier = 0;
    tick = 0;
    swap_ins = 0;
    swap_outs = 0;
    words_swapped = 0;
    compactions = 0;
    mirror_writes = 0;
    swap_in_failures = 0;
  }

let program t id =
  if id < 0 || id >= t.count then invalid_arg "Swapper: unknown program";
  t.programs.(id)

(* A whole-program transfer: the blit always happens; timing comes from
   the device model when one is configured (the swap waits for the
   timed completion), else from the flat [Level.transfer] charge.
   [Error] carries the terminal device failure (only under a
   [Fault.Fail] escalation policy); the clock has still advanced to the
   moment the device gave up. *)
let timed_transfer t ~kind ~id ~src ~src_off ~dst ~dst_off ~len =
  match t.cfg.device with
  | None ->
    Memstore.Level.transfer ~src ~src_off ~dst ~dst_off ~len;
    Ok ()
  | Some m ->
    Memstore.Physical.blit
      ~src:(Memstore.Level.physical src)
      ~src_off
      ~dst:(Memstore.Level.physical dst)
      ~dst_off ~len;
    let clock = Memstore.Level.clock t.cfg.core in
    (match Device.Model.fetch_result m ~now:(Sim.Clock.now clock) ~kind ~page:id ~words:len with
     | Ok fin ->
       Sim.Clock.advance_to clock fin;
       Ok ()
     | Error f ->
       Sim.Clock.advance_to clock f.at_us;
       Error f)

let add_program t ~name ~size =
  assert (size > 0);
  if t.backing_frontier + size > Memstore.Level.size t.cfg.backing then
    (* lint: allow L4 — backing exhaustion is a documented fatal misconfiguration *)
    failwith "Swapper: backing storage exhausted";
  if t.count >= Array.length t.programs then begin
    let dummy =
      {
        prog_name = "";
        size = 0;
        registers = Relocation.create ~base:0 ~limit:0;
        backing_addr = 0;
        resident = false;
        modified = false;
        last_used = 0;
      }
    in
    let grown = Array.make (max 8 (2 * Array.length t.programs)) dummy in
    Array.blit t.programs 0 grown 0 t.count;
    t.programs <- grown
  end;
  let id = t.count in
  t.count <- t.count + 1;
  t.programs.(id) <-
    {
      prog_name = name;
      size;
      registers = Relocation.create ~base:0 ~limit:size;
      backing_addr = t.backing_frontier;
      resident = false;
      modified = false;
      last_used = 0;
    };
  t.backing_frontier <- t.backing_frontier + size;
  id

(* A write-out that terminally fails would strand the only current copy
   of a modified program in core, so the swapper never surfaces it:
   the image is re-written over the fault-immune (duplexed) path,
   paying the extra device time. *)
let write_back t id (p : program) =
  (match
     timed_transfer t ~kind:Device.Request.Writeback ~id ~src:t.cfg.core
       ~src_off:(Relocation.base p.registers) ~dst:t.cfg.backing
       ~dst_off:p.backing_addr ~len:p.size
   with
   | Ok () -> ()
   | Error _ ->
     t.mirror_writes <- t.mirror_writes + 1;
     (match t.cfg.device with
      | None -> assert false (* only the device path can fail *)
      | Some m ->
        let clock = Memstore.Level.clock t.cfg.core in
        (match
           Device.Model.fetch_result ~immune:true m ~now:(Sim.Clock.now clock)
             ~kind:Device.Request.Writeback ~page:id ~words:p.size
         with
         | Ok fin -> Sim.Clock.advance_to clock fin
         | Error _ -> assert false (* immune requests never fail *))));
  t.words_swapped <- t.words_swapped + p.size;
  p.modified <- false

let swap_out t id =
  let p = program t id in
  if p.resident then begin
    if p.modified then write_back t id p;
    Freelist.Allocator.free t.allocator (Relocation.base p.registers);
    p.resident <- false;
    t.swap_outs <- t.swap_outs + 1
  end

(* The least recently used resident program other than [keep]. *)
let lru_resident t ~keep =
  let best = ref None in
  for id = 0 to t.count - 1 do
    let p = t.programs.(id) in
    if p.resident && id <> keep then
      match !best with
      | Some b when t.programs.(b).last_used <= p.last_used -> ()
      | Some _ | None -> best := Some id
  done;
  !best

let compact t =
  Obs.Prof.span "swap.compact" @@ fun () ->
  t.compactions <- t.compactions + 1;
  (* The relocation registers are the only stored absolute addresses:
     retarget the register whose base matches each moved block. *)
  let by_base = Hashtbl.create 16 in
  for id = 0 to t.count - 1 do
    let p = t.programs.(id) in
    if p.resident then Hashtbl.replace by_base (Relocation.base p.registers) id
  done;
  Freelist.Allocator.compact t.allocator t.channel ~relocate:(fun old_addr new_addr ->
      match Hashtbl.find_opt by_base old_addr with
      | Some id ->
        Relocation.relocate t.programs.(id).registers ~base:new_addr;
        Hashtbl.remove by_base old_addr;
        Hashtbl.replace by_base new_addr id
      | None -> invalid_arg "Swapper.compact: moved block owned by no program")

let swap_in t id =
  Obs.Prof.span "swap.swap_in" @@ fun () ->
  let p = program t id in
  assert (not p.resident);
  let rec place () =
    match Freelist.Allocator.alloc t.allocator p.size with
    | Some addr -> addr
    | None ->
      if
        t.cfg.compact_on_failure
        && Freelist.Allocator.free_words t.allocator > p.size + 8
      then begin
        (* Enough total space exists; only its shattering is in the way. *)
        compact t;
        match Freelist.Allocator.alloc t.allocator p.size with
        | Some addr -> addr
        | None -> evict_and_retry ()
      end
      else evict_and_retry ()
  and evict_and_retry () =
    match lru_resident t ~keep:id with
    | Some victim ->
      swap_out t victim;
      place ()
    (* lint: allow L4 — a program larger than working storage is a documented fatal misconfiguration *)
    | None -> failwith "Swapper: program larger than working storage"
  in
  let addr = place () in
  match
    timed_transfer t ~kind:Device.Request.Demand ~id ~src:t.cfg.backing
      ~src_off:p.backing_addr ~dst:t.cfg.core ~dst_off:addr ~len:p.size
  with
  | Ok () ->
    t.words_swapped <- t.words_swapped + p.size;
    Relocation.relocate p.registers ~base:addr;
    p.resident <- true;
    t.swap_ins <- t.swap_ins + 1;
    Ok ()
  | Error f ->
    (* The image never arrived: release the placement and surface.
       The backing copy is intact, so a later touch simply retries. *)
    Freelist.Allocator.free t.allocator addr;
    t.swap_in_failures <- t.swap_in_failures + 1;
    Error
      (Resilience.Failure.Swap_in_failed
         { segment = id; words = p.size; attempts = f.attempts; at_us = f.at_us })

let access t id name ~write =
  let p = program t id in
  (match if p.resident then Ok () else swap_in t id with
   | Error _ as e -> e
   | Ok () ->
     t.tick <- t.tick + 1;
     p.last_used <- t.tick;
     if write then p.modified <- true;
     Ok (Relocation.translate p.registers name))

let touch t id name ~write =
  match access t id name ~write with
  | Ok addr -> addr
  (* lint: allow L4 — legacy wrapper; unreachable without a Fail-escalation device, documented to raise otherwise *)
  | Error f -> failwith (Resilience.Failure.to_string f)

let read_result t id name =
  match access t id name ~write:false with
  | Error _ as e -> e
  | Ok addr -> Ok (Memstore.Level.read t.cfg.core addr)

let read t id name = Memstore.Level.read t.cfg.core (touch t id name ~write:false)

let write_result t id name v =
  match access t id name ~write:true with
  | Error _ as e -> e
  | Ok addr -> Ok (Memstore.Level.write t.cfg.core addr v)

let write t id name v = Memstore.Level.write t.cfg.core (touch t id name ~write:true) v

let in_core t id = (program t id).resident

let base_of t id =
  let p = program t id in
  if p.resident then Some (Relocation.base p.registers) else None

let swap_ins t = t.swap_ins

let swap_outs t = t.swap_outs

let words_swapped t = t.words_swapped

let compactions t = t.compactions

let mirror_writes t = t.mirror_writes

let swap_in_failures t = t.swap_in_failures

let external_fragmentation t =
  Metrics.Fragmentation.external_of_free_blocks
    (Freelist.Allocator.free_block_sizes t.allocator)
