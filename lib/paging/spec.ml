type t =
  | Fifo
  | Lru
  | Clock
  | Random
  | Nru
  | Lfu
  | Atlas
  | M44
  | Working_set of int
  | Opt

let to_string = function
  | Fifo -> "FIFO"
  | Lru -> "LRU"
  | Clock -> "CLOCK"
  | Random -> "RANDOM"
  | Nru -> "NRU"
  | Lfu -> "LFU"
  | Atlas -> "ATLAS"
  | M44 -> "M44"
  | Working_set tau -> Printf.sprintf "WS(%d)" tau
  | Opt -> "OPT"

let all_practical =
  [ Fifo; Lru; Clock; Random; Nru; Lfu; Atlas; M44; Working_set 64 ]

type engine = {
  e_page_size : int;
  e_frames : int;
  e_pages : int;
  e_device : Memstore.Device.t;
  e_policy : t;
  e_tlb_slots : int option;
  e_compute_us_per_ref : int;
}

let instantiate spec ~rng ~trace =
  let rng = Sim.Rng.split rng in
  match spec with
  | Fifo -> Replacement.fifo ()
  | Lru -> Replacement.lru ()
  | Clock -> Replacement.clock_sweep ()
  | Random -> Replacement.random rng
  | Nru -> Replacement.nru rng
  | Lfu -> Replacement.lfu ()
  | Atlas -> Replacement.atlas_learning ()
  | M44 -> Replacement.m44 rng
  | Working_set tau -> Replacement.working_set ~tau
  | Opt ->
    (match trace with
     | Some trace -> Replacement.opt trace
     | None -> invalid_arg "Spec.instantiate: OPT requires the reference trace")

(* Clocked instantiation of a pure engine description.  Construction
   order (core level, backing level, policy) matches the historical
   hand-written call sites, so rewiring them through [build] leaves
   results bit-identical. *)
let build ?obs ?device ?recovery ?(core_name = "core") ~clock ~rng ?trace e =
  let core =
    Memstore.Level.make clock Memstore.Device.core ~name:core_name
      ~words:(e.e_frames * e.e_page_size)
  in
  let backing =
    Memstore.Level.make clock e.e_device ~name:e.e_device.Memstore.Device.label
      ~words:(e.e_pages * e.e_page_size)
  in
  let policy = instantiate e.e_policy ~rng ~trace in
  let tlb =
    Option.map
      (fun capacity -> Tlb.create ~clock ~capacity Tlb.Lru_replacement)
      e.e_tlb_slots
  in
  Demand.create ?obs ?device ?recovery
    {
      Demand.page_size = e.e_page_size;
      frames = e.e_frames;
      pages = e.e_pages;
      core;
      backing;
      policy;
      tlb;
      compute_us_per_ref = e.e_compute_us_per_ref;
    }
