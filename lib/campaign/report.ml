(* Cross-run analytics over a loaded campaign: group-by aggregation
   (who wins where), winner tables (crossover frontiers), and log-log
   power-law fits with committed-golden checking (finite-size
   scaling). *)

type group = {
  key : string;
  count : int;
  mean : float;
  stddev : float;
  g_min : float;
  g_max : float;
}

let done_cells cells =
  List.filter (fun (c : Store.loaded) -> match c.status with Store.Done -> true | _ -> false) cells

let axis_value (p : Spec.point) name =
  if name = "seed" then Some (string_of_int p.Spec.seed)
  else List.assoc_opt name p.Spec.params

let metric_value (c : Store.loaded) name = List.assoc_opt name c.metrics

let metric_names cells =
  List.sort_uniq compare
    (List.concat_map (fun (c : Store.loaded) -> List.map fst c.metrics) (done_cells cells))

(* Axis values are strings but usually numbers; sort numerically when
   both sides parse, so "words" groups come out 1024, 4096, ... *)
let key_compare a b =
  match (float_of_string_opt a, float_of_string_opt b) with
  | Some x, Some y -> compare x y
  | _ -> compare a b

let grouped cells ~metric ~by =
  let table = Hashtbl.create 16 in
  let keys = ref [] in
  List.iter
    (fun (c : Store.loaded) ->
      match (axis_value c.point by, metric_value c metric) with
      | Some key, Some v ->
        let st =
          match Hashtbl.find_opt table key with
          | Some st -> st
          | None ->
            let st = Metrics.Stats.create () in
            Hashtbl.replace table key st;
            keys := key :: !keys;
            st
        in
        Metrics.Stats.add st v
      | _ -> ())
    (done_cells cells);
  List.sort key_compare (List.sort_uniq compare !keys)
  |> List.map (fun key ->
         match Hashtbl.find_opt table key with
         | Some st ->
           {
             key;
             count = Metrics.Stats.count st;
             mean = Metrics.Stats.mean st;
             stddev = Metrics.Stats.stddev st;
             g_min = Metrics.Stats.min st;
             g_max = Metrics.Stats.max st;
           }
         | None -> { key; count = 0; mean = 0.; stddev = 0.; g_min = 0.; g_max = 0. })

let aggregate cells ~metric ~by =
  match grouped cells ~metric ~by with
  | [] ->
    Error
      (Printf.sprintf "no done cell carries metric %S with axis %S" metric by)
  | groups -> Ok groups

(* For every value of [by], the [contender] value with the best mean
   metric — the crossover table (e.g. which policy wins at each store
   size). *)
type winner = {
  w_key : string;  (* the [by] value *)
  w_winner : string;  (* the winning [contender] value *)
  w_value : float;  (* its mean metric *)
}

let winners cells ~metric ~by ~contender ~maximize =
  let pairs = Hashtbl.create 16 in
  let keys = ref [] in
  List.iter
    (fun (c : Store.loaded) ->
      match
        (axis_value c.point by, axis_value c.point contender, metric_value c metric)
      with
      | Some key, Some cont, Some v ->
        let slot = (key, cont) in
        let st =
          match Hashtbl.find_opt pairs slot with
          | Some st -> st
          | None ->
            let st = Metrics.Stats.create () in
            Hashtbl.replace pairs slot st;
            keys := slot :: !keys;
            st
        in
        Metrics.Stats.add st v
      | _ -> ())
    (done_cells cells);
  let slots = List.sort_uniq compare !keys in
  let by_values = List.sort key_compare (List.sort_uniq compare (List.map fst slots)) in
  match by_values with
  | [] ->
    Error
      (Printf.sprintf
         "no done cell carries metric %S with axes %S and %S" metric by contender)
  | _ ->
    Ok
      (List.map
         (fun key ->
           let best =
             List.fold_left
               (fun best (k, cont) ->
                 if k <> key then best
                 else
                   match Hashtbl.find_opt pairs (k, cont) with
                   | None -> best
                   | Some st ->
                     let v = Metrics.Stats.mean st in
                     (match best with
                      | None -> Some (cont, v)
                      | Some (_, bv) ->
                        if (maximize && v > bv) || ((not maximize) && v < bv) then
                          Some (cont, v)
                        else best))
               None slots
           in
           match best with
           | Some (cont, v) -> { w_key = key; w_winner = cont; w_value = v }
           | None -> { w_key = key; w_winner = "-"; w_value = 0. })
         by_values)

(* --- power-law fits ------------------------------------------------- *)

type agg =
  | Mean
  | Std

let agg_of_string = function
  | "mean" -> Ok Mean
  | "std" -> Ok Std
  | other -> Error (Printf.sprintf "unknown aggregation %S (mean | std)" other)

let string_of_agg = function Mean -> "mean" | Std -> "std"

type fitted = {
  f_metric : string;
  f_x : string;
  f_agg : agg;
  fit : Metrics.Stats.fit;
  points : (float * float) list;  (* x value, aggregated metric *)
}

(* Group by the numeric [x] axis, aggregate the metric within each
   group (across seeds and any other axes), then OLS on log10/log10.
   Non-positive aggregates cannot be logged and are dropped — a fit
   needs at least two surviving groups. *)
let fit cells ~metric ~x ~agg =
  match aggregate cells ~metric ~by:x with
  | Error e -> Error e
  | Ok groups ->
    let points =
      List.filter_map
        (fun g ->
          match float_of_string_opt g.key with
          | None -> None
          | Some xv ->
            let yv = match agg with Mean -> g.mean | Std -> g.stddev in
            if xv > 0. && yv > 0. then Some (xv, yv) else None)
        groups
    in
    (match
       Metrics.Stats.linfit
         (List.map (fun (xv, yv) -> (log10 xv, log10 yv)) points)
     with
     | Some f -> Ok { f_metric = metric; f_x = x; f_agg = agg; fit = f; points }
     | None ->
       Error
         (Printf.sprintf
            "fit of %s(%s) vs %s needs at least two positive groups" (string_of_agg agg)
            metric x))

(* --- committed goldens ---------------------------------------------- *)

type golden = {
  g_metric : string;
  g_x : string;
  g_agg : agg;
  exponent : float;
  tolerance : float;
}

let golden_schema = "dsas-fit-golden/1"

let golden_to_json g =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.String golden_schema);
         ("metric", Obs.Json.String g.g_metric);
         ("x", Obs.Json.String g.g_x);
         ("agg", Obs.Json.String (string_of_agg g.g_agg));
         ("exponent", Obs.Json.Float g.exponent);
         ("tolerance", Obs.Json.Float g.tolerance);
       ])

let load_golden path =
  Obs.Artifact.load ~schema:golden_schema
    (fun doc ->
      let ( let* ) = Result.bind in
      let field get name =
        Option.to_result ~none:(Printf.sprintf "missing %S field" name)
          (get (Obs.Json.member name doc))
      in
      let* g_metric = field Obs.Json.string "metric" in
      let* g_x = field Obs.Json.string "x" in
      let* agg_s = field Obs.Json.string "agg" in
      let* g_agg = agg_of_string agg_s in
      let* exponent = field Obs.Json.number "exponent" in
      let* tolerance = field Obs.Json.number "tolerance" in
      Ok { g_metric; g_x; g_agg; exponent; tolerance })
    path

(* The golden pins the fit's identity (metric, axis, aggregation) as
   well as its exponent: comparing a fresh fit of the wrong quantity
   against a matching number would be a silent false pass. *)
let check_golden g (f : fitted) =
  if g.g_metric <> f.f_metric || g.g_x <> f.f_x || g.g_agg <> f.f_agg then
    Error
      (Printf.sprintf
         "golden is for %s(%s) vs %s, fit is %s(%s) vs %s"
         (string_of_agg g.g_agg) g.g_metric g.g_x (string_of_agg f.f_agg) f.f_metric
         f.f_x)
  else begin
    let delta = abs_float (f.fit.Metrics.Stats.slope -. g.exponent) in
    if delta <= g.tolerance then Ok ()
    else
      Error
        (Printf.sprintf
           "exponent %+.4f differs from golden %+.4f by %.4f (tolerance %.4f)"
           f.fit.Metrics.Stats.slope g.exponent delta g.tolerance)
  end
