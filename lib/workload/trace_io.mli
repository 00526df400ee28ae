(** Plain-text trace files.

    Reference traces and allocation streams can be saved and reloaded,
    so experiments can run over externally captured traces (the
    Belady-era methodology) and `bin/tracegen` can materialize any of
    the built-in generators for other tools.

    Formats: a reference trace is one decimal address per line; an
    allocation stream is ["a <id> <size>"] or ["f <id>"] per line.
    Blank lines and lines starting with ['#'] are ignored in both. *)

val save_trace : string -> Trace.t -> unit

val load_trace : string -> (Trace.t, string) result
(** [Error] naming the file and the 1-based line of the first malformed
    line, including a negative address, or the system's message when
    the file cannot be read. *)

val write_trace : out_channel -> Trace.t -> unit

val save_events : string -> Alloc_stream.event list -> unit

val load_events : string -> (Alloc_stream.event list, string) result
(** Errors as {!load_trace}. *)

val write_events : out_channel -> Alloc_stream.event list -> unit
