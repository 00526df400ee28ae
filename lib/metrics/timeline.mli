(** A time profile of storage occupancy — the picture in Fig. 3.

    The paper's figure plots space held by a program against real time,
    shading the intervals spent awaiting page arrivals.  A timeline
    accumulates (interval, words held, active/waiting) segments as a
    simulation runs and renders them as an ASCII silhouette: column
    height is storage held, ['#'] columns are mostly execution, ['.']
    columns mostly waiting. *)

type t

val create : unit -> t

val record : t -> at:int -> dt:int -> words:int -> Space_time.state -> unit
(** Append a segment covering [at, at+dt) during which [words] of
    working storage were held in the given state.  Zero-length segments
    are ignored.  A segment that continues the newest one (it starts
    where that one ends, with the same words and state) extends it
    instead, so an engine's timeline grows with its changes of
    residency or state, not with its steps. *)

val segments : t -> int
(** Segments kept: continuations merged, zero-length ones ignored. *)

val span_us : t -> int
(** Time covered, from 0 to the end of the last segment. *)

val render : ?width:int -> ?height:int -> t -> string
(** The Fig. 3 silhouette.  Each column covers [span/width]
    microseconds; its height is the time-weighted mean words held there
    and its character the dominant state. *)
