(** A sampled time series: (simulated time, value) points, the series
    a {!Registry} holds for mid-run probes (see {!Sink.sample}). *)

type t

val create : unit -> t

val sample : t -> t_us:int -> float -> unit
(** Record one point.  [t_us] must be >= the previous sample's time. *)

val length : t -> int

val points : t -> (int * float) list
(** Chronological. *)

val last : t -> (int * float) option

val to_json : t -> Json.t
(** [[[t_us, value], ...]] — a compact JSON array of pairs. *)
