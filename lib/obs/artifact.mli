(** Artifact files: the one whole-document loader, the one atomic
    writer and the one JSON-lines reader behind every command that
    reads back what the simulator wrote. *)

val write_atomic : string -> string -> unit
(** [write_atomic path text] writes [text] to [path ^ ".tmp"] and
    renames it over [path], so a reader sees the old file or the new
    one, never a torn write. *)

val load : schema:string -> (Json.t -> ('a, string) result) -> string -> ('a, string) result
(** [load ~schema decode path] reads the JSON document at [path],
    checks its ["schema"] field ({!Json.document}) and decodes it.  An
    unreadable file is [Error] with the system's message; every other
    error is prefixed with ["PATH: "]. *)

(** {1 JSON lines} *)

type lines = {
  label : string;  (** the file name, or ["<stdin>"] *)
  lines : string list;  (** every line, untrimmed, in order *)
}

val read_lines : string -> (lines, string) result
(** All lines of a file, or of standard input when the name is ["-"]
    (stdin is left open).  [Error] only when the file cannot be read. *)

val data : lines -> (int * string) list
(** The data lines, trimmed, with their 1-based line numbers: blank
    lines and lines starting with ['#'] are skipped but still counted. *)

val parse_lines :
  what:string -> plural:string -> (string -> 'a option) -> lines -> ((int * 'a) list, string) result
(** Strict: every data line must parse.  Otherwise [Error]
    ["LABEL: N malformed line(s)"] quoting the first five as
    ["line L: not WHAT: ..."] and counting the rest as
    ["(... M more not shown)"]; no data lines at all is
    ["LABEL: contains no PLURAL"]. *)

val lenient : (string -> 'a option) -> string -> 'a list
(** Every line of the file that parses, in order; nothing when it
    cannot be read.  For files still being written, whose last line may
    be torn. *)
