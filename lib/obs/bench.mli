(** Machine-readable benchmark results and regression diffing.

    The bechamel harness in [bench/] measures ns/run by OLS against a
    monotonic clock; this module gives those numbers a stable on-disk
    schema ([dsas-bench/1]) and a comparator, so CI can keep a committed
    baseline and fail when a kernel regresses.

    Thresholds are on ns/run growth in percent.  Host-to-host variance
    is real — a baseline measured on one machine diffed on another needs
    a generous threshold (CI uses one); same-host comparisons can be
    tight. *)

type result = {
  name : string;
  ns_per_run : float;
  r_square : float option;  (** OLS fit quality, when the analysis had it *)
}

type results = {
  clock : string;  (** e.g. ["monotonic"] *)
  quick : bool;  (** measured at reduced scale *)
  results : result list;
}

val to_json : results -> string

val load : string -> (results, string) Stdlib.result
(** Parse a results file written by {!to_json} (schema [dsas-bench/1]).
    [Error] with a diagnostic on unreadable files, malformed JSON, a
    wrong/missing schema tag, a ["results"] field that is not an array,
    and an entry that is not an object with a string ["name"], a
    numeric ["ns_per_run"] and, when present, a numeric ["r_square"]. *)

type verdict = {
  v_name : string;
  old_ns : float;
  new_ns : float;
  delta_pct : float;  (** signed growth, [new/old - 1] in percent *)
  regressed : bool;  (** [delta_pct > threshold] *)
}

type comparison = {
  threshold_pct : float;
  verdicts : verdict list;  (** kernels present in both files, by name *)
  only_old : string list;  (** in the baseline but not the new run *)
  only_new : string list;
}

val compare_results : threshold_pct:float -> old_r:results -> new_r:results -> comparison

val regressions : comparison -> verdict list
(** The verdicts over threshold, worst first. *)

val print : out_channel -> comparison -> unit
(** Human-readable table: every common kernel with old/new/delta,
    ordered by regression magnitude (worst first), regressions flagged,
    missing kernels noted. *)

val comparison_to_json : comparison -> string
(** Machine-readable comparison (the [--json] artifact); verdicts in
    the same worst-first order as {!print}. *)
