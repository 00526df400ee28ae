(** Deterministic pseudo-random number generation (splitmix64).

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that experiments are reproducible from a single seed and
    independent components can be given independent streams via {!split}.

    The whole generator is its 64-bit counter, kept in 8 bytes that each
    draw reads and advances in place: a draw that returns an int
    ({!int}, {!int_in}, {!bool}, {!geometric}, {!pick} of an int array,
    {!shuffle}) allocates nothing.  {!bits64} and the float draws return
    boxed values. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds give equal
    streams. *)

val derive : ?override:int -> int -> t
(** [derive ?override default] is [create default] unless [override]
    is given, in which case the stream is re-seeded from
    [override lxor default] — the plumbing behind the global [--seed]
    flag.  Distinct per-site defaults keep distinct streams under one
    override; sites sharing a default (a deliberately regenerated
    trace) keep sharing a stream. *)

val state : t -> int64
(** [state t] exposes the raw splitmix64 counter for checkpointing.
    [of_state (state t)] resumes the stream exactly where [t] is. *)

val of_state : int64 -> t
(** [of_state s] rebuilds a generator from a saved {!state}. *)

val split : t -> t
(** [split t] returns a new generator whose stream is independent of the
    subsequent outputs of [t] (it is seeded from [t]'s next output). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform on [0, n-1].  [n] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on [lo, hi] inclusive.  Requires
    [lo <= hi]. *)

val bool : t -> bool
(** Fair coin. *)

val float : t -> float -> float
(** [float t x] is uniform on [0, x). *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution with the
    given mean.  [mean] must be positive. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success in
    Bernoulli trials with success probability [p] (so the result is >= 0
    with mean [(1-p)/p]).  Requires [0 < p <= 1]. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
