(** Declarative sweep specification (schema [dsas-campaign-spec/1]).

    A campaign is the cartesian product of ordered parameter axes times
    a list of seeds, all running one cell kind.  Every grid point has a
    deterministic id ([axis=value,...,seed=N]) built from its bindings,
    so a campaign directory can be resumed, diffed and joined across
    runs by id alone.  All tokens (names, axis names, values) are
    restricted to [[A-Za-z0-9._-]+] — ids double as file names. *)

type axis = {
  axis_name : string;
  values : string list;
}

type t = {
  name : string;
  cell : string;  (** cell kind the executor runs at every point *)
  seeds : int list;
  quick : bool;  (** run cells at reduced scale *)
  trace_every : int;  (** 0 = no traces; else every Nth grid point *)
  axes : axis list;  (** ordered; first axis varies slowest *)
}

type point = {
  id : string;
  params : (string * string) list;  (** axis bindings, in axis order *)
  seed : int;
  traced : bool;
}

val validate : t -> (unit, string) result
(** Token alphabet, unique axis names, non-empty values and seeds.
    The axis name ["seed"] is reserved. *)

val points : t -> point list
(** The full grid, in deterministic order: axes outer-to-inner, seeds
    innermost. *)

val to_json : t -> string

val of_json : string -> (t, string) result
(** Parse and {!validate}.  [seeds] defaults to [[0]], [quick] to
    [false], [trace_every] to [0], [axes] to [[]] (a single point per
    seed).  Numeric axis values are stringified.  A seed or
    [trace_every] that is not an integer of magnitude at most 2^53, or
    a [quick] that is not a boolean, is an [Error]. *)

val load : string -> (t, string) result

val config_hash : t -> string
(** MD5 of the canonical serialisation: any change to the grid re-keys
    the campaign, so a resume into a stale directory is refused. *)
