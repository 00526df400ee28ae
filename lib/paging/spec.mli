(** Declarative replacement-policy specifications.

    {!Replacement.t} values are stateful and single-use; a [Spec.t] is a
    pure description that can be stored in a machine definition or swept
    in an experiment and instantiated fresh for every run. *)

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

val to_string : t -> string

val all_practical : t list
(** Everything except [Opt]. *)

val instantiate : t -> rng:Sim.Rng.t -> trace:Workload.Trace.t option -> Replacement.t
(** Build a fresh policy.  [trace] (the page-number reference string) is
    required by [Opt] and ignored by the rest; [rng] seeds the stochastic
    policies (split off, so the caller's stream is perturbed identically
    regardless of the spec). *)

(** {2 Whole-engine specifications}

    The same split, one level up: an [engine] is a pure description of a
    complete demand-paging configuration — geometry, backing device,
    policy spec — with {e no} clocked state.  {!build} instantiates it
    against a caller-supplied virtual clock (and rng), so several
    engines can be built from one description, each owning an
    independent clock: exactly what a sharded multicore run needs, one
    engine per shard. *)

type engine = {
  e_page_size : int;  (** words per page frame *)
  e_frames : int;  (** page frames of working storage *)
  e_pages : int;  (** extent of the linear name space, in pages *)
  e_device : Memstore.Device.t;  (** backing store timing *)
  e_policy : t;  (** replacement policy, as a pure spec *)
  e_tlb_slots : int option;  (** associative-memory capacity, if any *)
  e_compute_us_per_ref : int;
}

val build :
  ?obs:Obs.Sink.t ->
  ?device:Device.Model.t ->
  ?recovery:Demand.recovery ->
  ?core_name:string ->
  clock:Sim.Clock.t ->
  rng:Sim.Rng.t ->
  ?trace:Workload.Trace.t ->
  engine ->
  Demand.t
(** Instantiate the description: create the core and backing levels on
    [clock] (core named [core_name], default ["core"]; backing named
    after the device), instantiate the policy from [rng] (and [trace],
    required for [Opt]), and assemble the {!Demand} engine.  Building
    the same description twice with equal clocks and rng states yields
    engines with identical behaviour.

    This is how every demand-paging engine outside [Dsas.System] is
    assembled (the experiments and the sharded engines).  [obs],
    [device] and [recovery] are passed unchanged to {!Demand.create};
    the backing level starts zeroed, and {!Demand.backing} reaches it
    to write initial contents. *)
