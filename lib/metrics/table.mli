(** Fixed-width text tables — the "rows the paper reports".

    Every experiment in the benchmark harness prints its results through
    this module so that output is uniform and diffable. *)

val render : headers:string list -> string list list -> string
(** [render ~headers rows] lays the rows out in columns sized to the
    widest cell, with a rule under the header.  The first column is
    left-aligned, the rest right-aligned. *)

val print : headers:string list -> string list list -> unit
(** [render] followed by [print_string]. *)

val fmt_float : ?decimals:int -> float -> string
(** Fixed-point formatting helper (default 2 decimals). *)

val fmt_pct : float -> string
(** Format a [0,1] fraction as a percentage with one decimal. *)
