(** Cross-campaign regression diffing.

    Done cells matched by id, metrics matched by name, verdicts
    ordered by drift magnitude, cells or metrics present in only one
    campaign reported.  Cells are deterministic given their seed, so
    drift in {e either} direction beyond the threshold is a
    regression. *)

type row = {
  cell : string;
  metric : string;
  old_v : float;
  new_v : float;
  delta_pct : float;
      (** signed [(new/old - 1)] in percent; [infinity] when a zero
          metric became non-zero *)
  regressed : bool;  (** [|delta_pct| > threshold] *)
}

type comparison = {
  threshold_pct : float;
  rows : row list;  (** every compared metric, worst drift first *)
  only_old : string list;  (** cell ids, or [id#metric] bindings *)
  only_new : string list;
}

val compare_campaigns :
  threshold_pct:float ->
  old_cells:Store.loaded list ->
  new_cells:Store.loaded list ->
  comparison

val regressions : comparison -> row list

val print : out_channel -> comparison -> unit
(** Offending rows plus a summary line; a healthy diff prints only the
    summary. *)

val to_json : comparison -> string
