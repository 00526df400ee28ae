(** Request scheduling policies for a device channel.

    - [Fifo]: strict arrival order, the null policy.
    - [Satf]: shortest-access-time-first — of the requests waiting when
      a channel frees up, serve the one whose service can {e start}
      soonest given the current rotational phase and head position.
      This is the ATLAS drum's sector queueing.
    - [Priority]: demand faults before prefetches before writebacks
      ({!Request.rank}), FIFO within a class — programs blocked on a
      fault never queue behind advisory traffic. *)

type t = Fifo | Satf | Priority

val name : t -> string

val of_string : string -> (t, string) result

val all : t list

val pick :
  t ->
  geometry:Geometry.t ->
  at:int ->
  head:int ->
  Request.t array ->
  first:int ->
  last:int ->
  int
(** [pick t ~geometry ~at ~head queue ~first ~last] chooses which
    waiting request a channel free at [at] (head at [head]) serves
    next, and returns its index.  [queue.(first)] to [queue.(last - 1)]
    are the waiting requests in arrival order (arrivals non-decreasing,
    ids increasing), and [queue.(first)] has arrived by [at]
    ([first < last]).  The requests that compete are the prefix that
    has arrived by [at]: [Fifo] takes [first], [Priority] the first
    index of the lowest {!Request.rank}, and [Satf] the first index of
    the lowest {!Geometry.start_us}.  Taking the first index breaks
    ties FIFO, by [(arrival_us, id)], under every policy, so scheduling
    is deterministic.  The scan reads no request past the prefix, and
    none past the first that no later one can beat.  Allocates
    nothing. *)
