(** JSON: one value type, one printer, one parser.

    Every artifact the simulator writes and reads back — traces,
    telemetry, metrics, campaign specs, logs and goldens,
    checkpoints — goes through this module.  Not a general JSON library:
    strings are bytes (a [\u] escape above [00ff] is refused, since
    the printer never writes one), and numbers keep the int/float split
    the writers use. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields in order; lookups take the first match *)

val to_buffer : Buffer.t -> t -> unit
(** Append the compact one-line encoding.  A [Float] is written with a
    ['.'] or an exponent, so it reads back as a [Float] — except an
    integral float of magnitude at least [1e15] whose shortest exact
    form is plain digits (as in [1234567890123456]), which reads back
    as the equal [Int].  Non-finite floats are written as [nan] or
    [inf] and do not parse back. *)

val to_string : t -> string

val add_int : Buffer.t -> int -> unit
(** Append an [Int] as {!to_buffer} writes it, with no string built. *)

val quads : string
(** ["0000"] to ["9999"], concatenated: the digit table both int
    writers read, {!add_int} four digits at a time and
    {!Event.add_int} two. *)

val parse : string -> t option
(** Parse one complete document; [None] on malformed input or trailing
    garbage.  A number token with a ['.'], ['e'] or ['E'] is a [Float];
    any other is an [Int], and an integer outside the [int] range is
    malformed. *)

val flat : string -> (string * t) list option
(** Parse a flat object: every field an [Int], [Float] or [String].
    The line formats (events, telemetry snapshots, checkpoint headers,
    campaign log lines) are flat, and their readers check it here. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for a missing field or any other value. *)

val int : t option -> int option
(** [Some n] for [Some (Int n)]. *)

val number : t option -> float option
(** An [Int] or [Float] as a float. *)

val string : t option -> string option

val all : ('a, 'e) result list -> ('a list, 'e) result
(** The values of a list of decoded items, or the first error. *)

val document : schema:string -> string -> (t, string) result
(** Parse a whole document whose ["schema"] field must equal [schema].
    Errors: ["malformed JSON"], ["schema S, expected S'"],
    ["missing \"schema\" field"]. *)
