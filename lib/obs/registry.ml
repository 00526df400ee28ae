type counter = { mutable n : int }

type gauge = { mutable v : float }

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  stats : (string, Metrics.Stats.t) Hashtbl.t;
  histograms : (string, Metrics.Histogram.t) Hashtbl.t;
  mutable meta : (string * string) list;
}

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    stats = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    meta = [];
  }

(* Replace-or-append: later stamps win by key, insertion order kept. *)
let set_meta t bindings =
  List.iter
    (fun (k, v) ->
      if List.mem_assoc k t.meta then
        t.meta <- List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) t.meta
      else t.meta <- t.meta @ [ (k, v) ])
    bindings

let get_or_create tbl name build =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
    let v = build () in
    Hashtbl.replace tbl name v;
    v

let counter t name = get_or_create t.counters name (fun () -> { n = 0 })

let gauge t name = get_or_create t.gauges name (fun () -> { v = 0. })

let stats t name = get_or_create t.stats name Metrics.Stats.create

let histogram t name ~default = get_or_create t.histograms name default

let incr ?(by = 1) c = c.n <- c.n + by

let counter_value c = c.n

let set g v = g.v <- v

let gauge_value g = g.v

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
}

let sorted_bindings tbl value =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (* lint: allow L3 — the bindings are sorted by the enclosing List.sort *)
    (Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl [])

let snapshot (t : t) =
  {
    counters = sorted_bindings t.counters (fun c -> c.n);
    gauges = sorted_bindings t.gauges (fun g -> g.v);
  }

(* Full export: unlike [snapshot], which keeps only counters and
   gauges, this serialises complete state — histogram buckets with
   percentiles, stats moments — so a run's metrics survive as a
   machine-readable artifact ([run --metrics-out]).  The empty
   "series" object keeps the dsas-metrics/1 bytes of earlier
   artifacts. *)
let to_json (t : t) =
  let stats_obj s =
    let count = Metrics.Stats.count s in
    Json.Obj
      [
        ("count", Json.Int count);
        ("mean", Json.Float (Metrics.Stats.mean s));
        ("stddev", Json.Float (Metrics.Stats.stddev s));
        ("min", Json.Float (if count = 0 then 0. else Metrics.Stats.min s));
        ("max", Json.Float (if count = 0 then 0. else Metrics.Stats.max s));
        ("total", Json.Float (Metrics.Stats.total s));
      ]
  in
  let histogram_obj h =
    let buckets =
      Array.to_list (Metrics.Histogram.bucket_counts h)
      |> List.filter (fun (_, n) -> n > 0)
      |> List.map (fun (label, n) ->
             Json.Obj [ ("bucket", Json.String label); ("count", Json.Int n) ])
    in
    Json.Obj
      [
        ("count", Json.Int (Metrics.Histogram.count h));
        ( "min",
          Json.Int (match Metrics.Histogram.min_value h with Some v -> v | None -> 0) );
        ( "max",
          Json.Int (match Metrics.Histogram.max_value h with Some v -> v | None -> 0) );
        ("p50", Json.Int (Metrics.Histogram.percentile h 0.50));
        ("p90", Json.Int (Metrics.Histogram.percentile h 0.90));
        ("p99", Json.Int (Metrics.Histogram.percentile h 0.99));
        ("buckets", Json.List buckets);
      ]
  in
  let section bindings value_of =
    Json.Obj (List.map (fun (k, v) -> (k, value_of v)) bindings)
  in
  Json.to_string
    (Json.Obj
       (("schema", Json.String "dsas-metrics/1")
        :: ((if t.meta = [] then []
             else [ ("meta", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) t.meta)) ])
            @ [
                ("counters", section (sorted_bindings t.counters Fun.id) (fun c -> Json.Int c.n));
                ("gauges", section (sorted_bindings t.gauges Fun.id) (fun g -> Json.Float g.v));
                ("stats", section (sorted_bindings t.stats Fun.id) stats_obj);
                ("histograms", section (sorted_bindings t.histograms Fun.id) histogram_obj);
                ("series", Json.Obj []);
              ])))
