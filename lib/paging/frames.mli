(** The frame set: the pages in working storage, the replacement policy
    that arbitrates them, and the one order of its callbacks, for every
    paging engine but {!Hierarchy}.  A set holds at most [capacity] of
    the keys [0 .. keys - 1] in a {!Resident.t}, and a state byte per
    key (never resident, resident before, resident), so a hit test is
    one byte read.

    A victim is chosen among the members that are not pinned (Demand's
    locked pages, Multiprog's pages in flight): the member array itself,
    lent, when none is.  A victim that is not a candidate is refused
    with [Invalid_argument] before anything changes.

    What an engine counts is its own.  A Multiprog job retries a faulted
    reference once its page lands and calls {!reference} again, so the
    policy hears of that reference twice.  Demand evicts before it
    fetches ({!choose}, {!remove}) and loads after ({!load}), so a page
    whose fetch fails gets no callback at all. *)

type t

val create : ?pinned:(int -> bool) -> capacity:int -> keys:int -> Replacement.t -> t
(** [pinned k] holds when the resident key [k] may not be the victim.
    It is asked once per member at each victim choice; its closure is
    made once, here, so a choice with nothing pinned allocates
    nothing. *)

val hit : int

val loaded : int

val stalled : int
(** Every frame full and every member pinned: nothing changed and the
    policy was not asked. *)

val reference : t -> page:int -> write:bool -> unit
(** [on_reference]. *)

val touch : t -> page:int -> write:bool -> int
(** {!reference}, then {!hit} if [page] is resident, else {!fault}. *)

val fault : t -> page:int -> int
(** Load [page], which is not resident: into a free frame ([on_load];
    {!loaded}), or in the place of a victim ([choose_victim], [on_evict]
    of the victim, [on_load]; the victim), or {!stalled}. *)

val choose : t -> int
(** [choose_victim] among the unpinned members, or {!stalled}.  The
    victim stays resident until {!remove}. *)

val load : t -> page:int -> unit
(** [on_load] of [page] into a free frame, with no reference. *)

val remove : t -> page:int -> unit
(** [on_evict] of a resident [page]: a victim from {!choose}, or a page
    that leaves outside the policy's choice (advice, an aborted or shed
    job). *)

val length : t -> int

val elements : t -> int array
(** The members, as {!Resident.elements} lends them. *)

type result = { refs : int; faults : int; cold : int; evictions : int }

val run : ?obs:Obs.Sink.t -> ?write:(int -> bool) -> t -> Workload.Trace.t -> result
(** {!Fault_sim}'s loop over a page trace, reference [i] a write when
    [write i] holds: the step of {!touch}, written here because a call
    into another module is never inlined.  Cold faults are those of a
    page never resident before.  With a sink it emits [fault],
    [cold_fault] and [eviction] events stamped with the reference
    index. *)
