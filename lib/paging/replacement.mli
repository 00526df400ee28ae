(** Replacement strategies.

    The paper: "When it is necessary to make room in working storage for
    some new information, a replacement strategy is used to determine
    which informational units should be overlayed.  The strategy should
    seek to avoid the overlaying of information which may be required
    again in the near future."  The canon evaluated by Belady [1] —
    RANDOM, FIFO, LRU, the unrealizable optimum — is implemented here
    together with the machine-specific strategies of the appendix: the
    ATLAS "learning program" (A.1), the M44's class-random rule (A.2),
    plus CLOCK, NRU, LFU and working-set as the standard points of
    comparison.

    A policy is a record of callbacks driven by a {!Frames} set:
    [on_reference] fires for every reference in trace order (hit or
    fault), and once more when a Multiprog job retries a faulted
    reference; [on_load]/[on_evict] on residency changes; and
    [choose_victim] must return one of the [candidates] it is given
    (Demand's locked pages and Multiprog's pages in flight left out).

    The [candidates] array is non-empty and strictly ascending, and it
    is lent for the call only: the engine may reuse it afterwards (the
    frame set passes its own member array), so a policy must neither
    keep it nor modify it.  FIFO and CLOCK test membership by binary
    search on that order.

    [on_evict] fires for every page that leaves working storage, the
    policy's own victims and pages an engine drops outside any choice
    (Demand's [advise_wont_need], Multiprog's aborts and load shedding)
    alike; a page whose fetch failed never loaded and gets neither.

    Keys are dense non-negative ints: every engine numbers its pages
    [0 .. n-1] for its [n] pages, in an order it keeps fixed.  A
    policy keeps its per-page state (LRU stamps, use and modify bits,
    counts, ATLAS's last use and T, FIFO's mark of the pages on its
    ring) in int arrays indexed by key, which grow to the power of two
    past the largest key seen, so a sparse key costs memory in
    proportion to its value.  A victim choice reads those arrays
    directly, candidate by candidate, and allocates nothing.  Those
    policies raise [Invalid_argument] on a negative key. *)

type t = {
  name : string;
  on_reference : page:int -> write:bool -> unit;
  on_load : page:int -> unit;
  on_evict : page:int -> unit;
  choose_victim : candidates:int array -> int;
}

val fifo : unit -> t
(** Evict the page resident longest.  The load order is a ring of the
    resident pages; a page evicted outside FIFO's own choice leaves it
    too, so when it is loaded again it is the newest page. *)

val lru : unit -> t
(** Evict the page unreferenced longest. *)

val clock_sweep : unit -> t
(** Second chance: a hand sweeps pages in load order, clearing use bits;
    the first page found with its bit clear is the victim. *)

val random : Sim.Rng.t -> t
(** Uniform choice among candidates. *)

val nru : Sim.Rng.t -> t
(** Not-recently-used classes: prefer (unused, unmodified), then
    (unused, modified), then used classes; random within a class.  Use
    bits are cleared after every victim choice, emulating the periodic
    sensor reset. *)

val lfu : unit -> t
(** Evict the page with the fewest references since load. *)

val atlas_learning : unit -> t
(** The ATLAS drum-transfer learning program (Kilburn et al. [14]): for
    each resident page keep [t], the time since last use, and [T], the
    length of its previous period of inactivity.  A page with [t > T + 1]
    is believed out of use and the one with greatest [t] is taken;
    otherwise the page maximising [T - t] (longest expected time until
    next use) is taken.  Time is measured in references. *)

val m44 : Sim.Rng.t -> t
(** The M44/44X rule (appendix A.2, after Belady): select at random from
    the set of equally acceptable candidates, determined on the basis of
    frequency of usage and whether or not the page has been modified —
    i.e. random among the least-frequently-used, preferring unmodified
    pages within that set. *)

val working_set : tau:int -> t
(** Evict a page outside the working-set window of [tau] references
    (the one longest out), falling back to LRU when every candidate is
    inside the window.  With a fixed frame count both cases take the
    page unreferenced longest, so the choice is LRU's; [tau] names the
    policy. *)

val opt : Workload.Trace.t -> t
(** Belady's unrealizable optimum for the given page-number trace: evict
    the page whose next use is farthest in the future.  The policy
    counts references via [on_reference] to know its position, so it
    must only be driven by exactly this trace.  Building it indexes the
    trace once, keeping for each position the position of the next
    reference to the same page, in arrays of at most 256 ints; a victim
    choice then reads one next use per candidate. *)
