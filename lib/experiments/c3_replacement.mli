(** Experiment C3 — replacement strategies (after Belady [1]).

    Fault-rate-versus-memory-size curves for every implemented policy —
    FIFO, LRU, CLOCK, RANDOM, NRU, LFU, the ATLAS learning program, the
    M44 class-random rule, working set — against Belady's unrealizable
    OPT, on three locality structures (cyclic loop, working-set phases,
    Zipf popularity).  Also reproduces Belady's anomaly: FIFO faulting
    more with more memory. *)

type curve = {
  trace_name : string;
  policy : string;
  points : (int * float) list;  (** frames, fault rate *)
}

type shape =
  | Loop  (** a 40-page loop over 64 pages; draws nothing *)
  | Phases  (** working-set phases: 24-page sets over 128 pages *)
  | Zipf  (** Zipf(1.0) popularity over 128 pages *)

val trace : Sim.Rng.t -> length:int -> shape -> Workload.Trace.t
(** One reference string of the given locality structure.  [measure]
    draws its zipf trace and then its phases trace from one stream at
    site 555; the campaign replacement cell draws either from a fresh
    site-555 stream, so only its zipf trace is [measure]'s. *)

val point :
  ?obs:Obs.Sink.t ->
  ?seed:int ->
  frames:int ->
  Paging.Spec.t ->
  Workload.Trace.t ->
  Paging.Fault_sim.result
(** One untimed fault-rate run, the grid point behind {!measure} and
    the campaign replacement cell: a fresh policy (stochastic ones
    seeded at site 9) replays [trace] in [frames] frames. *)

val measure : ?quick:bool -> ?obs:Obs.Sink.t -> ?seed:int -> unit -> curve list
(** With a sink, every simulated run reports fault / cold-fault /
    eviction events; runs are spliced with {!Obs.Sink.segment} (one unit
    of time per reference) so timestamps stay monotone. *)

val anomaly_rows : unit -> (int * int * int) list
(** (frames, FIFO faults, LRU faults) on the canonical 12-reference
    string. *)

val run : ?quick:bool -> ?obs:Obs.Sink.t -> ?seed:int -> unit -> unit
