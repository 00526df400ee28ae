(** Fixed-bucket histograms over non-negative integers.

    Two bucketing schemes: linear (equal-width buckets over [lo, hi)) and
    logarithmic (one bucket per power of two), the latter suited to
    allocation-size and lifetime distributions which span decades.  The
    buckets are for display; a histogram also keeps every sample, so its
    percentiles and extremes are exact. *)

type t

val linear : lo:int -> hi:int -> buckets:int -> t
(** Equal-width buckets covering [lo, hi); out-of-range samples are
    clamped into the first/last bucket.  Requires [lo < hi] and
    [buckets > 0]. *)

val log2 : max_exponent:int -> t
(** Buckets [0], [1], [2-3], [4-7], ... up to [2^max_exponent]; larger
    samples land in the last bucket. *)

val add : t -> int -> unit

val count : t -> int
(** Total number of samples. *)

val bucket_counts : t -> (string * int) array
(** Label and count of every bucket, in order. *)

val percentile : t -> float -> int
(** [percentile t p] with [0. <= p <= 1.] is the [ceil (p * count)]-th
    smallest sample itself (the smallest for [p = 0.]); 0 if empty.  The
    one rank rule behind every percentile the simulator reports:
    [query --pair] ([Obs.Query.latency_of]) and the metrics artifact
    ([Obs.Registry.to_json]). *)

val percentiles : t -> float list -> (float * int) list
(** [percentiles t ps] is [percentile] mapped over [ps], keeping the
    requested fractions alongside the values. *)

val min_value : t -> int option
(** Exact smallest sample added, independent of bucket resolution;
    [None] if empty. *)

val max_value : t -> int option
(** Exact largest sample added; [None] if empty. *)

val bucket_of : t -> int -> int
(** Index of the bucket a sample would land in (after clamping). *)

val lower_bound : t -> int -> int
(** Inclusive lower bound of bucket [i]. *)
