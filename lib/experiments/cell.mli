(** Parameterizable experiment entry points ("cells") for campaign
    sweeps.

    Where {!Registry.entry}'s [run] prints a fixed report, a cell is a
    machine-facing entry point: the campaign executor hands it string
    parameter bindings (one grid point of a sweep spec), a seed, and a
    metrics registry to fill; the registry is then exported as the
    cell's [dsas-metrics/1] artifact.  Parameter parsing is strict: a
    binding for a parameter the cell does not declare in [params] is
    refused by {!Cells.for_spec} before anything runs, and a malformed
    value fails the cell with a diagnostic rather than silently running
    defaults. *)

type ctx = {
  params : (string * string) list;  (** axis bindings from the spec *)
  seed : int;
  quick : bool;
  reg : Obs.Registry.t;  (** fill with the cell's metrics *)
  obs : Obs.Sink.t;  (** event sink (null unless the spec asks for traces) *)
}

type spec = {
  id : string;  (** cell kind, named by sweep specs (e.g. ["fss"]) *)
  doc : string;
  params : (string * string) list;  (** parameter name, doc with default *)
  run : ctx -> (unit, string) result;
}

(** {2 Strict parameter access} *)

val get : ctx -> string -> default:string -> string

val get_int : ctx -> string -> default:int -> (int, string) result

val get_float : ctx -> string -> default:float -> (float, string) result
(** [Error] on anything but a finite number: NaN would slip past every
    range check. *)

val get_enum :
  ctx -> string -> default:string -> values:string list -> (string, string) result

val get_choice :
  ctx -> string -> default:string -> choices:(string * 'a) list -> ('a, string) result
(** {!get_enum} over the names of [choices], returning the named value. *)

val require_positive : string -> int -> (int, string) result

(** {2 Registry shorthands} *)

val gauge : ctx -> string -> float -> unit

val count : ctx -> string -> int -> unit

(** {2 Identity stamps} *)

val config_summary : cell:string -> ctx -> string
(** One-line ["cell=... k=v ... seed=N quick=B"] summary for the trace
    [run_start] boundary. *)

val stamp : cell:string -> ctx -> unit
(** Write cell id, seed, quick, and every parameter binding into the
    registry's metadata, making the metrics artifact self-describing. *)
