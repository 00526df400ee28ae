(** A dynamic storage allocation system, assembled from the paper's
    design space.

    A [System.t] pairs the four-characteristic classification with the
    concrete mechanism that realizes it — a paging engine, a
    segment-unit store, or a two-level segment-and-page mapping — and
    the storage levels it runs over.  Machines from the paper's appendix
    ({!Machines}) are values of this type; experiments assemble ad-hoc
    ones to explore the rest of the design space.

    Running a system on a workload instantiates fresh engines (runs are
    independent and deterministic given the seed) and returns a uniform
    {!report}. *)

type mechanism =
  | Paged of {
      page_size : int;
      frames : int;
      policy : Paging.Spec.t;
      tlb_capacity : int;
    }
  | Segmented of {
      placement : Freelist.Policy.t;
      replacement : Segmentation.Segment_store.replacement;
      max_segment : int option;
    }
  | Segmented_paged of {
      page_size : int;
      frames : int;
      policy : Paging.Spec.t;
      tlb_capacity : int;
    }

type t = {
  name : string;
  characteristics : Namespace.Characteristics.t;
  core_words : int;
  core_device : Memstore.Device.t;
  backing_words : int;
  backing_device : Memstore.Device.t;
  mechanism : mechanism;
  compute_us_per_ref : int;
}

type report = {
  system : string;
  refs : int;
  faults : int;  (** page or segment faults *)
  writebacks : int;
  elapsed_us : int option;  (** simulated time (timed engines only) *)
  space_time_waiting_fraction : float option;
  tlb_hit_ratio : float option;
  map_accesses : int option;  (** two-level engines only *)
  external_fragmentation : float option;  (** segmented stores only *)
}

val report_rows : report list -> string list list
(** Rows for {!Metrics.Table.print} with headers {!report_headers}. *)

val report_headers : string list

(** {2 Running workloads} *)

val run_linear : t -> ?seed:int -> ?obs:Obs.Sink.t -> Workload.Trace.t -> report
(** Drive a word-address trace through a [Paged] system.  A [Segmented]
    system treats the linear space as compiler-sized segments (at most
    1024 words, the B5000 limit — the matrix trick); [Segmented_paged]
    maps it as one large segment per 2^18 words.  [seed] feeds
    stochastic policies.

    [obs] is handed to the underlying engine ({!Paging.Demand} or
    {!Segmentation.Segment_store}); two-level engines are not yet
    instrumented.  The default no-op sink changes nothing. *)

val run_annotated :
  t -> ?seed:int -> ?obs:Obs.Sink.t -> Predictive.Directive.step array -> report
(** Like {!run_linear} with predictive directives interleaved.  Only
    [Paged] systems accept advice; raises [Invalid_argument]
    otherwise. *)

val run_segmented :
  t -> ?seed:int -> ?obs:Obs.Sink.t -> segments:int array -> (int * int) array -> report
(** Drive (segment, offset) references over declared segment lengths.
    Works for every mechanism: a [Paged] system lays the segments out
    contiguously in its linear name space (no bound checking between
    them — exactly the paper's complaint), the others map segments
    natively. *)
