(* Per-shard supervision: the restart loop runs entirely on the
   shard's worker domain inside Pool.map_shards, so supervision adds
   no cross-domain traffic.  Supervision events (crash / restart /
   checkpoint) are buffered per shard and merged by the caller into a
   separate supervision stream — never into the engine trace, which
   is what keeps recovered engine traces bit-identical to fault-free
   ones.

   Simulated wall time.  Supervision events carry their own clock:
   [wall_off] maps a shard's private engine clock onto a per-shard
   wall timeline that keeps advancing across restarts.  A checkpoint
   at engine clock [c] lands at [wall_off + c]; a crash lands at the
   last ticked clock; the restart follows after a deterministic
   seeded backoff; and the next attempt's offset is chosen so its
   first events land after the restart.  The engine clocks themselves
   are never shifted — determinism of the engine trace is untouched. *)

type fault = Crash | Stall

type kill = Resilience.Chaos.shard_kill = {
  k_shard : int;
  k_attempt : int;
  k_progress : int;
  k_stall : bool;
}

(* "S@P[,S@P...]"; a shard's n-th listed kill targets its n-th
   execution attempt. *)
let parse_kills spec =
  let invalid =
    Error
      (Printf.sprintf
         "invalid --kill-shard %S; expected comma-separated S@P pairs with shard S \
          >= 0 and progress P >= 1 (e.g. 0@500,1@200,0@900)"
         spec)
  in
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest -> (
      match String.split_on_char '@' (String.trim part) with
      | [ s; p ] -> (
        match (int_of_string_opt (String.trim s), int_of_string_opt (String.trim p)) with
        | Some shard, Some progress when shard >= 0 && progress >= 1 ->
          let attempt = List.length (List.filter (fun k -> k.k_shard = shard) acc) in
          let k =
            { k_shard = shard; k_attempt = attempt; k_progress = progress; k_stall = false }
          in
          parse (k :: acc) rest
        | _ -> invalid)
      | _ -> invalid)
  in
  parse [] (String.split_on_char ',' spec)

(* [step] checks for a kill before it saves that step's checkpoint, so
   a kill at step P resumes the next attempt from the last checkpoint
   below P. *)
let check_kills ~shards ~steps ~checkpoint_every kills =
  let never k why =
    Error (Printf.sprintf "--kill-shard %d@%d would never fire: %s" k.k_shard k.k_progress why)
  in
  let resumes_from p =
    if checkpoint_every > 0 then (p - 1) / checkpoint_every * checkpoint_every else 0
  in
  (* [last] maps a shard to the step of its previous kill. *)
  let rec go last = function
    | [] -> Ok ()
    | k :: _ when k.k_shard >= shards || k.k_progress > steps ->
      never k
        (Printf.sprintf "the workload runs shards 0..%d of %d steps each" (shards - 1) steps)
    | k :: rest -> (
      match List.assoc_opt k.k_shard last with
      | Some p when k.k_progress <= resumes_from p ->
        never k
          (Printf.sprintf
             "after its kill at step %d, shard %d resumes from the checkpoint at step %d" p
             k.k_shard (resumes_from p))
      | _ -> go ((k.k_shard, k.k_progress) :: last) rest)
  in
  go [] kills

exception Injected of fault

(* The restart budget per shard, the linear backoff step in simulated
   wall us, and the seed of the backoff jitter. *)
let max_restarts = 3

let backoff_us = 250

let backoff_seed = 0xBAC0FF

let no_inject ~shard:_ ~attempt:_ ~progress:_ = None

let inject_of_kills kills ~shard ~attempt ~progress =
  match
    List.find_opt
      (fun k -> k.k_shard = shard && k.k_attempt = attempt && k.k_progress = progress)
      kills
  with
  | Some k -> Some (if k.k_stall then Stall else Crash)
  | None -> None

type snap = {
  sn_clock_us : int;
  sn_rng : int64;
  sn_payload : int array;
  sn_events : Obs.Event.t array;
  sn_count : int;
}

type ctl = {
  c_shard : int;
  c_every : int;
  c_store : Checkpoint.store;
  c_inject : shard:int -> attempt:int -> progress:int -> fault option;
  mutable c_attempt : int;  (* crashes suffered so far *)
  mutable c_progress : int;
  mutable c_last_clock : int;
  mutable c_wall_off : int;
  mutable c_checkpoints : int;
  mutable c_sup : Obs.Event.t list;  (* supervision stream, newest first *)
}

let progress ctl = ctl.c_progress

let step ctl ~clock_us ~snapshot =
  ctl.c_progress <- ctl.c_progress + 1;
  ctl.c_last_clock <- clock_us;
  (match
     ctl.c_inject ~shard:ctl.c_shard ~attempt:ctl.c_attempt
       ~progress:ctl.c_progress
   with
   | Some f -> raise (Injected f)
   | None -> ());
  if ctl.c_every > 0 && ctl.c_progress mod ctl.c_every = 0 then begin
    let sn = snapshot () in
    Checkpoint.save ctl.c_store
      { Checkpoint.ck_shard = ctl.c_shard;
        ck_progress = ctl.c_progress;
        ck_clock_us = sn.sn_clock_us;
        ck_rng = sn.sn_rng;
        ck_payload = sn.sn_payload;
        ck_events = sn.sn_events;
        ck_count = sn.sn_count };
    ctl.c_checkpoints <- ctl.c_checkpoints + 1;
    ctl.c_sup <-
      Obs.Event.make
        ~t_us:(ctl.c_wall_off + sn.sn_clock_us)
        (Obs.Event.Shard_checkpoint
           { shard = ctl.c_shard;
             progress = ctl.c_progress;
             events = sn.sn_count })
      :: ctl.c_sup
  end

type outcome = {
  o_shard : int;
  o_crashes : int;
  o_restarts : int;
  o_checkpoints : int;
  o_events : Obs.Event.t array;  (* supervision stream, emission order *)
}

let supervise ~inject ~checkpoint_every ~store ~shard ~run =
  let ctl =
    { c_shard = shard; c_every = checkpoint_every; c_store = store;
      c_inject = inject; c_attempt = 0; c_progress = 0; c_last_clock = 0;
      c_wall_off = 0; c_checkpoints = 0; c_sup = [] }
  in
  let crashes = ref 0 in
  let restarts = ref 0 in
  (* One backoff stream per shard: deterministic regardless of how
     shards map to domains. *)
  let backoff_rng = Sim.Rng.create (backoff_seed lxor (shard * 0x9E3779B)) in
  let rec attempt () =
    let resume = Checkpoint.load store in
    ctl.c_attempt <- !crashes;
    (match resume with
     | Some st ->
       ctl.c_progress <- st.Checkpoint.ck_progress;
       ctl.c_last_clock <- st.Checkpoint.ck_clock_us
     | None ->
       ctl.c_progress <- 0;
       ctl.c_last_clock <- 0);
    match run ~resume ctl with
    | v ->
      Ok
        ( v,
          { o_shard = shard; o_crashes = !crashes; o_restarts = !restarts;
            o_checkpoints = ctl.c_checkpoints;
            o_events = Array.of_list (List.rev ctl.c_sup) } )
    | exception e ->
      let fault, poisoned =
        match e with
        | Injected f -> (f, false)
        | Checkpoint.Inconsistent _ -> (Crash, true)
        | _ -> (Crash, false)
      in
      (* A checkpoint the body could not trust is worse than none:
         drop it so the next attempt resumes from scratch. *)
      if poisoned then Checkpoint.clear store;
      incr crashes;
      let t_crash = ctl.c_wall_off + ctl.c_last_clock in
      ctl.c_sup <-
        Obs.Event.make ~t_us:t_crash
          (Obs.Event.Shard_crash { shard; attempt = !crashes })
        :: ctl.c_sup;
      if !crashes > max_restarts then
        Error
          (match fault with
           | Crash ->
             Resilience.Failure.Shard_crashed
               { shard; restarts = !restarts; at_us = t_crash }
           | Stall ->
             Resilience.Failure.Shard_stalled
               { shard; restarts = !restarts; at_us = t_crash })
      else begin
        let jitter = Sim.Rng.int backoff_rng backoff_us in
        let backoff = (backoff_us * !crashes) + jitter in
        incr restarts;
        let t_restart = t_crash + backoff in
        ctl.c_sup <-
          Obs.Event.make ~t_us:t_restart
            (Obs.Event.Shard_restart { shard; attempt = !restarts })
          :: ctl.c_sup;
        let resume_clock =
          match Checkpoint.load store with
          | Some st -> st.Checkpoint.ck_clock_us
          | None -> 0
        in
        ctl.c_wall_off <- t_restart - resume_clock;
        attempt ()
      end
  in
  attempt ()
