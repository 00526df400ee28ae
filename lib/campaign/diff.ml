(* Cross-campaign regression diffing: cells matched by id, metrics
   matched by name, verdicts ordered worst-first, cells present in only
   one campaign reported.

   Cells are deterministic given their seed, so two campaigns of the
   same grid on the same code agree exactly; the threshold is percent
   drift in either direction — a simulator change that moves any
   recorded metric of any cell beyond it is a regression. *)

type row = {
  cell : string;
  metric : string;
  old_v : float;
  new_v : float;
  delta_pct : float;  (* signed (new/old - 1) in percent; infinite from zero *)
  regressed : bool;
}

type comparison = {
  threshold_pct : float;
  rows : row list;  (* worst |delta| first *)
  only_old : string list;  (* done cells / metrics absent on the new side *)
  only_new : string list;
}

let near_zero v = abs_float v < 1e-12

let delta_of ~old_v ~new_v =
  if near_zero old_v && near_zero new_v then 0.
  else if near_zero old_v then infinity *. (if new_v > 0. then 1. else -1.)
  else ((new_v /. old_v) -. 1.) *. 100.

let rank r = abs_float r.delta_pct

let by_magnitude rows =
  List.sort
    (fun a b ->
      match compare (rank b) (rank a) with
      | 0 -> compare (a.cell, a.metric) (b.cell, b.metric)
      | c -> c)
    rows

let done_cells cells =
  List.filter
    (fun (c : Store.loaded) -> match c.status with Store.Done -> true | _ -> false)
    cells

let compare_campaigns ~threshold_pct ~old_cells ~new_cells =
  let olds = done_cells old_cells and news = done_cells new_cells in
  let old_ids = List.map (fun (c : Store.loaded) -> c.point.Spec.id) olds in
  let new_ids = List.map (fun (c : Store.loaded) -> c.point.Spec.id) news in
  let only_old = ref [] and only_new = ref [] and rows = ref [] in
  List.iter
    (fun (oc : Store.loaded) ->
      let id = oc.point.Spec.id in
      match
        List.find_opt (fun (nc : Store.loaded) -> nc.point.Spec.id = id) news
      with
      | None -> only_old := id :: !only_old
      | Some nc ->
        List.iter
          (fun (metric, old_v) ->
            match List.assoc_opt metric nc.metrics with
            | None -> only_old := (id ^ "#" ^ metric) :: !only_old
            | Some new_v ->
              let delta_pct = delta_of ~old_v ~new_v in
              rows :=
                {
                  cell = id;
                  metric;
                  old_v;
                  new_v;
                  delta_pct;
                  regressed = abs_float delta_pct > threshold_pct;
                }
                :: !rows)
          oc.metrics;
        List.iter
          (fun (metric, _) ->
            if List.assoc_opt metric oc.metrics = None then
              only_new := (id ^ "#" ^ metric) :: !only_new)
          nc.metrics)
    olds;
  List.iter
    (fun id -> if not (List.mem id old_ids) then only_new := id :: !only_new)
    new_ids;
  {
    threshold_pct;
    rows = by_magnitude !rows;
    only_old = List.sort compare !only_old;
    only_new = List.sort compare !only_new;
  }

let regressions c = List.filter (fun r -> r.regressed) c.rows

let fmt_delta r =
  if Float.is_finite r.delta_pct then Printf.sprintf "%+.2f%%" r.delta_pct
  else if r.delta_pct > 0. then "+inf%"
  else "-inf%"

(* Only the offending rows print — a healthy diff of a large campaign
   is one summary line, not thousands of zero rows. *)
let print oc c =
  let regs = regressions c in
  List.iter
    (fun r ->
      Printf.fprintf oc "%-52s %-28s %14g %14g %10s  REGRESSION\n" r.cell r.metric
        r.old_v r.new_v (fmt_delta r))
    regs;
  List.iter (fun id -> Printf.fprintf oc "%-52s (only in OLD campaign)\n" id) c.only_old;
  List.iter (fun id -> Printf.fprintf oc "%-52s (only in NEW campaign)\n" id) c.only_new;
  if regs = [] then
    Printf.fprintf oc "no regressions above %.2f%% across %d compared metric(s)\n"
      c.threshold_pct (List.length c.rows)
  else
    Printf.fprintf oc "%d regression(s) above %.2f%% across %d compared metric(s)\n"
      (List.length regs) c.threshold_pct (List.length c.rows)

let to_json c =
  let row_obj r =
    Obs.Json.Obj
      [
        ("cell", Obs.Json.String r.cell);
        ("metric", Obs.Json.String r.metric);
        ("old", Obs.Json.Float r.old_v);
        ("new", Obs.Json.Float r.new_v);
        ( "delta_pct",
          if Float.is_finite r.delta_pct then Obs.Json.Float r.delta_pct
          else Obs.Json.String (Printf.sprintf "%g" r.delta_pct) );
        ("regressed", Obs.Json.Bool r.regressed);
      ]
  in
  let strs items = Obs.Json.List (List.map (fun s -> Obs.Json.String s) items) in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("threshold_pct", Obs.Json.Float c.threshold_pct);
         ("rows", Obs.Json.List (List.map row_obj (regressions c)));
         ("compared", Obs.Json.Int (List.length c.rows));
         ("only_old", strs c.only_old);
         ("only_new", strs c.only_new);
         ("regressions", Obs.Json.Int (List.length (regressions c)));
       ])
