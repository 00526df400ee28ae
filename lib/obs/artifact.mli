(** Artifact files: the one whole-document loader, the one atomic
    writer, the one streamed-output opener and the one line fold behind
    every command that writes a file or reads back what the simulator
    wrote. *)

val write_atomic : string -> string -> unit
(** [write_atomic path text] writes [text] to [path ^ ".tmp"] and
    renames it over [path], so a reader sees the old file or the new
    one, never a torn write. *)

val writable : string list -> (unit, string) result
(** Check, before any work is done, that each output path can be
    created: [Error "PATH: No such file or directory"] for the first
    whose directory does not exist. *)

val with_out : string option -> (out_channel option -> ('a, string) result) -> ('a, string) result
(** [with_out path f] creates (or truncates) [path], runs [f] on its
    channel and closes it, also when [f] raises; [f None] without a
    path.  A file that cannot be created is [Error] with the system's
    message, and [f] does not run. *)

val with_jsonl : string option -> (Sink.t -> ('a, string) result) -> ('a, string) result
(** {!with_out} for an event stream: [f] gets a {!Sink.jsonl} sink
    over the file, or {!Sink.null} without a path. *)

val load : schema:string -> (Json.t -> ('a, string) result) -> string -> ('a, string) result
(** [load ~schema decode path] reads the JSON document at [path],
    checks its ["schema"] field ({!Json.document}) and decodes it.  An
    unreadable file is [Error] with the system's message; every other
    error is prefixed with ["PATH: "]. *)

(** {1 JSON lines} *)

type report = {
  label : string;  (** the file name, or ["<stdin>"] *)
  lines : int;  (** every line read, data or not *)
  parsed : int;  (** data lines the parser accepted *)
  malformed : int;  (** data lines it refused; the first five, numbered: *)
  first_malformed : (int * string) list;
}
(** What a {!fold} saw, for each reader to judge: strictly ({!strict})
    or leniently (not at all). *)

val fold :
  label:string -> (string -> 'a option) -> ('s -> int -> 'a -> 's) -> 's -> In_channel.t ->
  ('s * report, string) result
(** [fold ~label parse step init ic] hands each data line of [ic] that
    [parse] accepts to [step], with its 1-based line number, one line
    at a time.  Data lines are trimmed; blank and ['#'] lines are
    skipped but counted.  [Error "LABEL: MSG"], [MSG] the system's
    message, when reading fails. *)

val fold_file :
  (string -> 'a option) -> ('s -> int -> 'a -> 's) -> 's -> string -> ('s * report, string) result
(** {!fold} over a file, or over stdin (left open) when the name is
    ["-"]; [Error] also when the file cannot be opened, with the
    system's message, which names the file. *)

val strict : what:string -> plural:string -> report -> (unit, string) result
(** Every data line parsed, and there was one.  Otherwise [Error]
    ["LABEL: N malformed line(s)"] quoting the first five as
    ["line L: not WHAT: ..."] and counting the rest as
    ["(... M more not shown)"]; no data lines at all is
    ["LABEL: contains no PLURAL"]. *)
