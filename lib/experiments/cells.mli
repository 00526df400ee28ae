(** The campaign cell catalogue.

    One {!Cell.spec} per simulation family: paging (F3), placement
    (C2), replacement (C3), multiprog (C7), device (X8d), resilience
    (X9), frag_unit (C1), fss (X10), the sharded multicore pair
    par_alloc / par_paging (X11, whose [domains] parameter is an
    execution width that never changes results), and par_chaos.  A
    sweep spec names a cell and grids its parameters; the executor runs
    one cell per grid point.  A family cell parses its parameters and
    calls its experiment's own grid point ([Fig3.point],
    [C2_placement.point], ...), so a cell and the experiment row at the
    same setting are one run. *)

val all : Cell.spec list

val find : string -> Cell.spec option

val ids : string list
