(** X10 (extension): finite-size scaling of fragmentation.

    A fixed steady-state allocation mix (geometric object sizes, best
    fit, ~50% occupancy, fixed churn per object) is run in stores
    spanning three decades of size; two finite-size laws are fitted on
    log-log axes.  Hole count grows as a clean sub-extensive power
    ([holes(M) ~ M^0.73], r^2 ~ 1.0 — best fit recycles small holes and
    the wilderness absorbs the rest) and the seed-to-seed fluctuation
    of external fragmentation decays near the central-limit rate
    ([sigma(M) ~ M^(-0.4)]).  The fitted exponents are the goldens the
    x10_fss campaign regresses against. *)

type row = {
  words : int;  (** store size *)
  rep : int;  (** replicate index (independent seed) *)
  live_words : int;
  external_frag : float;
  largest_free_share : float;  (** largest free block / free words *)
  holes : int;
  mean_search : float;
}

val point :
  ?seed:int ->
  ?rep:int ->
  ?mean_size:float ->
  ?occupancy:float ->
  ?churn:int ->
  policy:Freelist.Policy.t ->
  words:int ->
  unit ->
  row
(** One steady-state run, the grid point behind {!measure} and the
    campaign fss cell: churn a live set of ~[occupancy * words /
    mean_size] objects for [churn] events per object, then read the
    final fragmentation state.  [rep] perturbs the stream seed so
    replicates are independent; [seed] shifts the whole family. *)

val measure : ?quick:bool -> ?seed:int -> unit -> row list

type fits = {
  holes_exponent : Metrics.Stats.fit option;  (** log holes vs log M *)
  sigma_exponent : Metrics.Stats.fit option;
      (** log stddev(external frag) vs log M *)
}

val fit_rows : row list -> fits

val run : ?quick:bool -> ?obs:Obs.Sink.t -> ?seed:int -> unit -> unit
