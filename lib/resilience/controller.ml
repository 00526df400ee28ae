type config = {
  period_us : int;
  low_utilization : float;
  high_utilization : float;
  min_active : int;
}

let config ?(period_us = 20_000) ?(low_utilization = 0.35)
    ?(high_utilization = 0.65) ?(min_active = 1) () =
  assert (period_us > 0);
  assert (0. <= low_utilization && low_utilization <= high_utilization
          && high_utilization <= 1.);
  assert (min_active >= 1);
  { period_us; low_utilization; high_utilization; min_active }

type verdict = Steady | Shed_one | Admit_one

type t = {
  cfg : config;
  mutable window_start : int;
  mutable busy_us : int;  (* compute time spent inside the current window *)
  window_faults : (int, int) Hashtbl.t;  (* job -> faults, current window *)
  scored_faults : (int, int) Hashtbl.t;  (* job -> faults, last closed window *)
  mutable ticks : int;
  mutable sheds : int;
  mutable admits : int;
}

let create cfg =
  {
    cfg;
    window_start = 0;
    busy_us = 0;
    window_faults = Hashtbl.create 8;
    scored_faults = Hashtbl.create 8;
    ticks = 0;
    sheds = 0;
    admits = 0;
  }

let observe_execute t ~us = t.busy_us <- t.busy_us + us

let observe_fault t ~job =
  let n = match Hashtbl.find_opt t.window_faults job with Some n -> n | None -> 0 in
  Hashtbl.replace t.window_faults job (n + 1)

let tick t ~now ~n_active ~n_parked =
  let elapsed = now - t.window_start in
  if elapsed < t.cfg.period_us then Steady
  else begin
    t.ticks <- t.ticks + 1;
    let utilization = float_of_int t.busy_us /. float_of_int elapsed in
    (* Close the window: victim scoring sees the finished window's
       per-job fault counts, the next window starts clean. *)
    Hashtbl.reset t.scored_faults;
    (* lint: allow L3 — key-for-key copy into a fresh table is order-independent *)
    Hashtbl.iter (Hashtbl.replace t.scored_faults) t.window_faults;
    Hashtbl.reset t.window_faults;
    t.window_start <- now;
    t.busy_us <- 0;
    if utilization < t.cfg.low_utilization && n_active > t.cfg.min_active then
      Shed_one
    else if utilization > t.cfg.high_utilization && n_parked > 0 then Admit_one
    else Steady
  end

let choose_victim t ~candidates =
  let score (job, occupancy) =
    let faults =
      match Hashtbl.find_opt t.scored_faults job with Some n -> n | None -> 0
    in
    (* Space-time product: pages held x demand put on the backing
       store.  +1 on each factor so a job idle in the window still has
       a finite, comparable score. *)
    (faults + 1) * (occupancy + 1)
  in
  match candidates with
  | [] -> None
  | first :: rest ->
    let best =
      List.fold_left
        (fun best c -> if score c > score best then c else best)
        first rest
    in
    Some (fst best)

let note_shed t = t.sheds <- t.sheds + 1

let note_admit t = t.admits <- t.admits + 1

let ticks t = t.ticks

let sheds t = t.sheds

let admits t = t.admits
