type t = { mutable rev_points : (int * float) list; mutable len : int }

let create () = { rev_points = []; len = 0 }

let sample t ~t_us v =
  (match t.rev_points with
   | (prev, _) :: _ when t_us < prev ->
     invalid_arg "Series.sample: time went backwards"
   | _ -> ());
  t.rev_points <- (t_us, v) :: t.rev_points;
  t.len <- t.len + 1

let length t = t.len

let points t = List.rev t.rev_points

let last t = match t.rev_points with [] -> None | p :: _ -> Some p

let to_json t = Json.List (List.map (fun (at, v) -> Json.List [ Json.Int at; Json.Float v ]) (points t))
