(* Declarative sweep specification: a cell kind, an ordered list of
   parameter axes, and a list of seeds.  The cartesian product of axis
   values times seeds is the campaign's cell grid; every grid point has
   a deterministic id built from its bindings, so a campaign directory
   can be resumed, diffed and joined across runs by id alone. *)

type axis = {
  axis_name : string;
  values : string list;
}

type t = {
  name : string;
  cell : string;
  seeds : int list;
  quick : bool;
  trace_every : int;  (* 0 = no traces; else every Nth grid point *)
  axes : axis list;
}

type point = {
  id : string;
  params : (string * string) list;
  seed : int;
  traced : bool;
}

let schema = "dsas-campaign-spec/1"

(* Ids become file names and diff keys: restrict every token to a
   filesystem- and separator-safe alphabet. *)
let token_ok s =
  String.length s > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '.' || c = '_' || c = '-')
       s

let validate t =
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) = Result.bind in
  let* () = check (token_ok t.name) "campaign name must be a [A-Za-z0-9._-]+ token" in
  let* () = check (token_ok t.cell) "cell kind must be a [A-Za-z0-9._-]+ token" in
  let* () = check (t.seeds <> []) "seeds must be non-empty" in
  let* () = check (t.trace_every >= 0) "trace_every must be >= 0" in
  let rec check_axes seen = function
    | [] -> Ok ()
    | a :: rest ->
      if not (token_ok a.axis_name) then
        Error (Printf.sprintf "axis name %S must be a [A-Za-z0-9._-]+ token" a.axis_name)
      else if a.axis_name = "seed" then
        Error "axis name \"seed\" is reserved (use the seeds list)"
      else if List.mem a.axis_name seen then
        Error (Printf.sprintf "duplicate axis %S" a.axis_name)
      else if a.values = [] then
        Error (Printf.sprintf "axis %S has no values" a.axis_name)
      else begin
        match List.find_opt (fun v -> not (token_ok v)) a.values with
        | Some v ->
          Error
            (Printf.sprintf "axis %S value %S must be a [A-Za-z0-9._-]+ token"
               a.axis_name v)
        | None -> check_axes (a.axis_name :: seen) rest
      end
  in
  check_axes [] t.axes

let id_of ~params ~seed =
  String.concat ","
    (List.map (fun (k, v) -> k ^ "=" ^ v) params @ [ Printf.sprintf "seed=%d" seed ])

let points t =
  let combos =
    List.fold_left
      (fun acc axis ->
        List.concat_map
          (fun params -> List.map (fun v -> params @ [ (axis.axis_name, v) ]) axis.values)
          acc)
      [ [] ] t.axes
  in
  let flat =
    List.concat_map
      (fun params -> List.map (fun seed -> (params, seed)) t.seeds)
      combos
  in
  List.mapi
    (fun i (params, seed) ->
      {
        id = id_of ~params ~seed;
        params;
        seed;
        traced = t.trace_every > 0 && i mod t.trace_every = 0;
      })
    flat

let to_json t =
  let strings l = Obs.Json.List (List.map (fun v -> Obs.Json.String v) l) in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.String schema);
         ("name", Obs.Json.String t.name);
         ("cell", Obs.Json.String t.cell);
         ("seeds", Obs.Json.List (List.map (fun s -> Obs.Json.Int s) t.seeds));
         ("quick", Obs.Json.Bool t.quick);
         ("trace_every", Obs.Json.Int t.trace_every);
         ( "axes",
           Obs.Json.List
             (List.map
                (fun a ->
                  Obs.Json.Obj [ ("name", Obs.Json.String a.axis_name); ("values", strings a.values) ])
                t.axes) );
       ])

(* The hash is over the canonical serialisation, so any change to the
   grid — name, cell, an axis value, a seed — re-keys the campaign and
   a resume into a stale directory is refused. *)
let config_hash t = Digest.to_hex (Digest.string (to_json t))

let string_of_num f =
  if Float.is_integer f && abs_float f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

(* JSON numbers are doubles: an integer field takes only integral values
   small enough to be exact. *)
let int_of_num what f =
  if Float.is_integer f && abs_float f <= 0x1p53 then Ok (int_of_float f)
  else
    Error
      (Printf.sprintf "%s must be an integer of magnitude at most 2^53 (got %s)" what
         (string_of_num f))

let of_doc doc =
  let ( let* ) = Result.bind in
  let field k = Obs.Json.member k doc in
  let* name =
    Option.to_result ~none:"missing \"name\" field" (Obs.Json.string (field "name"))
  in
  let* cell =
    Option.to_result ~none:"missing \"cell\" field" (Obs.Json.string (field "cell"))
  in
  let* seeds =
    match field "seeds" with
    | None -> Ok [ 0 ]
    | Some (Obs.Json.List items) ->
      Obs.Json.all
        (List.map
           (fun v ->
             match Obs.Json.number (Some v) with
             | Some f -> int_of_num "a seed" f
             | None -> Error "\"seeds\" must be an array of integers")
           items)
    | Some _ -> Error "\"seeds\" must be an array of integers"
  in
  let* quick =
    match field "quick" with
    | None -> Ok false
    | Some (Obs.Json.Bool b) -> Ok b
    | Some _ -> Error "\"quick\" must be true or false"
  in
  let* trace_every =
    match field "trace_every" with
    | None -> Ok 0
    | Some v ->
      (match Obs.Json.number (Some v) with
       | Some f -> int_of_num "\"trace_every\"" f
       | None -> Error "\"trace_every\" must be an integer")
  in
  let axis_of item =
    match Obs.Json.string (Obs.Json.member "name" item) with
    | None -> Error "axis missing \"name\""
    | Some axis_name ->
      (match Obs.Json.member "values" item with
       | Some (Obs.Json.List vs) ->
         let value_of v =
           match (v, Obs.Json.number (Some v)) with
           | Obs.Json.String s, _ -> Ok s
           | _, Some f -> Ok (string_of_num f)
           | _, None -> Error (Printf.sprintf "axis %S values must be strings or numbers" axis_name)
         in
         Result.map (fun values -> { axis_name; values }) (Obs.Json.all (List.map value_of vs))
       | _ -> Error (Printf.sprintf "axis %S missing \"values\" array" axis_name))
  in
  let* axes =
    match field "axes" with
    | None -> Ok []
    | Some (Obs.Json.List items) -> Obs.Json.all (List.map axis_of items)
    | Some _ -> Error "\"axes\" must be an array"
  in
  let t = { name; cell; seeds; quick; trace_every; axes } in
  let* () = validate t in
  Ok t

let of_json text = Result.bind (Obs.Json.document ~schema text) of_doc

let load path = Obs.Artifact.load ~schema of_doc path
