type event =
  | Alloc of { id : int; size : int }
  | Free of { id : int }

type size_dist =
  | Exact of int
  | Uniform of int * int
  | Geometric of { mean : float; min_size : int }
  | Bimodal of { small : int; large : int; large_fraction : float }

let sample_size rng = function
  | Exact n ->
    assert (n > 0);
    n
  | Uniform (lo, hi) ->
    assert (0 < lo && lo <= hi);
    Sim.Rng.int_in rng lo hi
  | Geometric { mean; min_size } ->
    assert (mean > 0. && min_size > 0);
    let p = 1. /. (mean +. 1.) in
    min_size + Sim.Rng.geometric rng p
  | Bimodal { small; large; large_fraction } ->
    assert (small > 0 && large > 0);
    assert (large_fraction >= 0. && large_fraction <= 1.);
    if Sim.Rng.float rng 1. < large_fraction then large else small

let live_stream rng ~steps ~size ~target_live =
  assert (steps > 0 && target_live > 0);
  let live = ref [||] in
  let live_count = ref 0 in
  let next_id = ref 0 in
  let events = ref [] in
  let push_live id =
    if !live_count >= Array.length !live then begin
      let grown = Array.make (max 8 (2 * Array.length !live)) 0 in
      Array.blit !live 0 grown 0 !live_count;
      live := grown
    end;
    !live.(!live_count) <- id;
    incr live_count
  in
  let alloc () =
    let id = !next_id in
    incr next_id;
    events := Alloc { id; size = sample_size rng size } :: !events;
    push_live id
  in
  let free () =
    let k = Sim.Rng.int rng !live_count in
    let id = !live.(k) in
    !live.(k) <- !live.(!live_count - 1);
    decr live_count;
    events := Free { id } :: !events
  in
  for _ = 1 to steps do
    if !live_count = 0 then alloc ()
    else if !live_count < target_live then alloc ()
    else if !live_count > target_live then free ()
    else if Sim.Rng.bool rng then alloc ()
    else free ()
  done;
  List.rev !events

type tally = { placed : int; unplaced : int; live_requested : int }

let replay events ~alloc ~free =
  let granted = Hashtbl.create 512 in
  List.fold_left
    (fun t -> function
      | Alloc { id; size } ->
        (match alloc ~id size with
         | Some token ->
           Hashtbl.replace granted id (token, size);
           { t with placed = t.placed + 1; live_requested = t.live_requested + size }
         | None -> { t with unplaced = t.unplaced + 1 })
      | Free { id } ->
        (match Hashtbl.find_opt granted id with
         | Some (token, size) ->
           Hashtbl.remove granted id;
           free token;
           { t with live_requested = t.live_requested - size }
         | None -> t))
    { placed = 0; unplaced = 0; live_requested = 0 }
    events
