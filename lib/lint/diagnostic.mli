(** One linter finding, pointing into a source file. *)

type code =
  | Rule of Rule.t
  | Parse_error  (** the file did not parse — nothing else was checked *)
  | Bad_pragma  (** malformed, unknown or suppression-free allow pragma *)

type t = { file : string; line : int; col : int; code : code; message : string }

val code_id : code -> string
(** A rule's {!Rule.id}, ["parse"] or ["pragma"]. *)

val code_slug : code -> string

val compare : t -> t -> int
(** Order by file, then line, then column — the emission order. *)

val to_string : t -> string
(** [file:line:col: [L4 partial-function] message] — one line, the
    human-facing form. *)

val to_json : t -> Obs.Json.t
(** One flat JSON object with [file]/[line]/[col]/[rule]/[name]/[message]. *)
