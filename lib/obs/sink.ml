type t =
  | Null
  | Jsonl of out_channel
  | Collect of (Event.t -> unit)
  | Tee of t * t
  | Shift of int * t

let null = Null

let jsonl oc = Jsonl oc

let collect f = Collect f

(* Both combinators collapse over [Null] so that wrapping an inactive
   sink stays inactive: engines given [segment ~offset null] still take
   the zero-cost path. *)
let tee a b = match (a, b) with Null, s | s, Null -> s | _ -> Tee (a, b)

let is_active = function Null -> false | _ -> true

let rec emit t ev =
  match t with
  | Null -> ()
  | Jsonl oc -> Event.to_channel oc ev
  | Collect f -> f ev
  | Tee (a, b) ->
    emit a ev;
    emit b ev
  | Shift (offset, inner) -> emit inner { ev with Event.t_us = ev.Event.t_us + offset }

let segment ?seed ?config ~run ~offset inner =
  match inner with
  | Null -> Null
  | _ ->
    let s = Shift (offset, inner) in
    emit s (Event.make ~t_us:0 (Event.Run_start { run; seed; config }));
    s

type splice = { into : t; seed : int option; mutable run : int; mutable offset : int }

let splice ?seed into = { into; seed; run = 0; offset = 0 }

let next sp ~config =
  let s = segment ?seed:sp.seed ~config ~run:sp.run ~offset:sp.offset sp.into in
  sp.run <- sp.run + 1;
  s

let advance sp span = sp.offset <- sp.offset + span

let rec flush = function
  | Null | Collect _ -> ()
  | Jsonl oc -> Stdlib.flush oc
  | Tee (a, b) ->
    flush a;
    flush b
  | Shift (_, inner) -> flush inner
