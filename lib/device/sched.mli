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
  t -> geometry:Geometry.t -> at:int -> head:int -> Request.t list -> Request.t option
(** [pick t ~geometry ~at ~head candidates] chooses which waiting
    request a channel free at [at] (head at [head]) serves next.
    Ties break FIFO — by [(arrival_us, id)] — under every policy, so
    scheduling is deterministic.  [None] iff [candidates] is empty. *)
