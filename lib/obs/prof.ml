type row = {
  path : string;
  count : int;
  total_ns : int;
  self_ns : int;
  alloc_words : float;
}

type node = {
  mutable n_count : int;
  mutable n_total_ns : int;
  mutable n_self_ns : int;
  mutable n_alloc_words : float;
}

type frame = {
  f_path : string;
  f_start_ns : int;
  f_alloc0 : float;
  mutable f_child_ns : int;
}

let on = ref false

let nodes : (string, node) Hashtbl.t = Hashtbl.create 64

let stack : frame list ref = ref []

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* [Gc.quick_stat]'s word counts move only at minor collections; these
   are current to the word. *)
let alloc_words_now () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let enable () =
  stack := [];
  on := true

let disable () = on := false

let reset () =
  Hashtbl.reset nodes;
  stack := []

let node_of path =
  match Hashtbl.find_opt nodes path with
  | Some n -> n
  | None ->
    let n = { n_count = 0; n_total_ns = 0; n_self_ns = 0; n_alloc_words = 0. } in
    Hashtbl.replace nodes path n;
    n

let close_frame fr =
  let elapsed = now_ns () - fr.f_start_ns in
  (match !stack with fr' :: rest when fr' == fr -> stack := rest | _ -> ());
  (match !stack with
   | parent :: _ -> parent.f_child_ns <- parent.f_child_ns + elapsed
   | [] -> ());
  let node = node_of fr.f_path in
  node.n_count <- node.n_count + 1;
  node.n_total_ns <- node.n_total_ns + elapsed;
  node.n_self_ns <- node.n_self_ns + (elapsed - fr.f_child_ns);
  node.n_alloc_words <- node.n_alloc_words +. (alloc_words_now () -. fr.f_alloc0)

let span name f =
  if not !on then f ()
  else begin
    let path =
      match !stack with
      | [] -> name
      | parent :: _ -> parent.f_path ^ ";" ^ name
    in
    let fr =
      { f_path = path;
        f_start_ns = now_ns ();
        f_alloc0 = alloc_words_now ();
        f_child_ns = 0 }
    in
    stack := fr :: !stack;
    match f () with
    | v ->
      close_frame fr;
      v
    | exception e ->
      close_frame fr;
      raise e
  end

let all_rows () =
  List.sort
    (fun a b -> compare a.path b.path)
    (* lint: allow L3 — the bindings are sorted by the enclosing List.sort *)
    (Hashtbl.fold
       (fun path n acc ->
         { path;
           count = n.n_count;
           total_ns = n.n_total_ns;
           self_ns = n.n_self_ns;
           alloc_words = n.n_alloc_words }
         :: acc)
       nodes [])

let rows () =
  List.sort (fun a b -> compare b.total_ns a.total_ns) (all_rows ())

let folded () =
  let buf = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s %d\n" r.path (r.self_ns / 1000)))
    (all_rows ());
  Buffer.contents buf

let to_json () =
  let span_obj r =
    Json.Obj
      [
        ("path", Json.String r.path);
        ("count", Json.Int r.count);
        ("total_ns", Json.Int r.total_ns);
        ("self_ns", Json.Int r.self_ns);
        ("alloc_words", Json.Float r.alloc_words);
      ]
  in
  Json.to_string (Json.Obj [ ("spans", Json.List (List.map span_obj (all_rows ()))) ])

let depth_of path =
  String.fold_left (fun acc c -> if c = ';' then acc + 1 else acc) 0 path

let leaf_of path =
  match String.rindex_opt path ';' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let print oc =
  let rs = all_rows () in
  if rs = [] then output_string oc "profiler: no spans recorded\n"
  else begin
    Printf.fprintf oc "%-40s %10s %12s %12s %14s\n" "span" "count" "total ms"
      "self ms" "alloc kw";
    List.iter
      (fun r ->
        let indent = String.make (2 * depth_of r.path) ' ' in
        Printf.fprintf oc "%-40s %10d %12.3f %12.3f %14.1f\n"
          (indent ^ leaf_of r.path)
          r.count
          (float_of_int r.total_ns /. 1e6)
          (float_of_int r.self_ns /. 1e6)
          (r.alloc_words /. 1e3))
      rs
  end

let around ~table ~folded:path f =
  if (not table) && path = None then f ()
  else begin
    reset ();
    enable ();
    let result = Fun.protect ~finally:disable f in
    Option.iter (fun path -> Artifact.write_atomic path (folded ())) path;
    if table then print stdout;
    result
  end
