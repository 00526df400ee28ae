(* Parameterizable experiment entry points ("cells") for campaign
   sweeps: a cell kind names a simulation, its parameters arrive as
   string bindings from a sweep spec, and its results land in a metrics
   registry (exported as one dsas-metrics/1 JSON per cell).  Parameter
   parsing is strict — an unknown or malformed binding is an error, so
   a typo in a spec fails the cell loudly instead of silently running
   defaults. *)

type ctx = {
  params : (string * string) list;
  seed : int;
  quick : bool;
  reg : Obs.Registry.t;
  obs : Obs.Sink.t;
}

type spec = {
  id : string;
  doc : string;
  params : (string * string) list;  (* name, doc (with default) *)
  run : ctx -> (unit, string) result;
}

let check_known (ctx : ctx) known =
  let unknown =
    List.filter (fun (name, _) -> not (List.mem name known)) ctx.params
  in
  match unknown with
  | [] -> Ok ()
  | (name, _) :: _ ->
    Error
      (Printf.sprintf "unknown parameter %S; this cell understands: %s" name
         (String.concat ", " known))

let get (ctx : ctx) name ~default =
  match List.assoc_opt name ctx.params with Some v -> v | None -> default

let get_int (ctx : ctx) name ~default =
  match List.assoc_opt name ctx.params with
  | None -> Ok default
  | Some v ->
    (match int_of_string_opt v with
     | Some n -> Ok n
     | None -> Error (Printf.sprintf "parameter %S: %S is not an integer" name v))

let get_float (ctx : ctx) name ~default =
  match List.assoc_opt name ctx.params with
  | None -> Ok default
  | Some v ->
    (match float_of_string_opt v with
     | Some f when Float.is_finite f -> Ok f
     | Some _ | None ->
       Error (Printf.sprintf "parameter %S: %S is not a finite number" name v))

let get_enum ctx name ~default ~values =
  let v = get ctx name ~default in
  if List.mem v values then Ok v
  else
    Error
      (Printf.sprintf "parameter %S: %S is not one of %s" name v
         (String.concat ", " values))

let get_choice ctx name ~default ~choices =
  Result.map
    (fun v -> List.assoc v choices)
    (get_enum ctx name ~default ~values:(List.map fst choices))

let require_positive name n =
  if n > 0 then Ok n else Error (Printf.sprintf "parameter %S must be positive (got %d)" name n)

(* -- registry shorthands: cells mostly record final gauges/counts -- *)

let gauge (ctx : ctx) name v = Obs.Registry.set (Obs.Registry.gauge ctx.reg name) v

let count (ctx : ctx) name n =
  Obs.Registry.incr ~by:n (Obs.Registry.counter ctx.reg name)

(* One-line config summary stamped into the metrics meta and the trace
   run_start boundary, so every artifact identifies its cell. *)
let config_summary ~cell (ctx : ctx) =
  let params =
    List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) ctx.params
  in
  String.concat " "
    ((Printf.sprintf "cell=%s" cell :: params)
     @ [ Printf.sprintf "seed=%d" ctx.seed; Printf.sprintf "quick=%b" ctx.quick ])

let stamp ~cell (ctx : ctx) =
  Obs.Registry.set_meta ctx.reg
    ([ ("cell", cell); ("seed", string_of_int ctx.seed);
       ("quick", string_of_bool ctx.quick) ]
     @ ctx.params)
