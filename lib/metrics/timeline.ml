type segment = { at : int; mutable dt : int; words : int; state : Space_time.state }

type t = { mutable segments : segment list; mutable count : int; mutable span : int }

let create () = { segments = []; count = 0; span = 0 }

let record t ~at ~dt ~words state =
  assert (at >= 0 && dt >= 0 && words >= 0);
  if dt > 0 then begin
    (match t.segments with
     | last :: _ when last.at + last.dt = at && last.words = words && last.state = state ->
       last.dt <- last.dt + dt
     | _ ->
       t.segments <- { at; dt; words; state } :: t.segments;
       t.count <- t.count + 1);
    t.span <- max t.span (at + dt)
  end

let segments t = t.count

let span_us t = t.span

let render ?(width = 64) ?(height = 12) t =
  assert (width > 0 && height > 0);
  if t.span = 0 then "(empty timeline)\n"
  else begin
    (* Per column: time-weighted words, and time split by state. *)
    let words_area = Array.make width 0. in
    let active_time = Array.make width 0. in
    let waiting_time = Array.make width 0. in
    let column_span = float_of_int t.span /. float_of_int width in
    let spread seg =
      let t0 = float_of_int seg.at and t1 = float_of_int (seg.at + seg.dt) in
      let c0 = int_of_float (t0 /. column_span) in
      let c1 = min (width - 1) (int_of_float ((t1 -. 1e-9) /. column_span)) in
      for c = c0 to c1 do
        let lo = Float.max t0 (float_of_int c *. column_span) in
        let hi = Float.min t1 (float_of_int (c + 1) *. column_span) in
        let overlap = Float.max 0. (hi -. lo) in
        words_area.(c) <- words_area.(c) +. (overlap *. float_of_int seg.words);
        match seg.state with
        | Space_time.Active -> active_time.(c) <- active_time.(c) +. overlap
        | Space_time.Waiting -> waiting_time.(c) <- waiting_time.(c) +. overlap
      done
    in
    List.iter spread t.segments;
    let mean_words c =
      let busy = active_time.(c) +. waiting_time.(c) in
      (* lint: allow L5 — exact-zero sentinel guarding division over nonnegative sums *)
      if busy = 0. then 0. else words_area.(c) /. busy
    in
    let peak = ref 1. in
    for c = 0 to width - 1 do
      if mean_words c > !peak then peak := mean_words c
    done;
    let buf = Buffer.create ((width + 16) * (height + 4)) in
    Buffer.add_string buf "space held (words) vs real time; '#' executing, '.' awaiting pages\n";
    for row = height downto 1 do
      let threshold = float_of_int row /. float_of_int height *. !peak in
      Buffer.add_string buf
        (if row = height then Printf.sprintf "%8.0f |" !peak
         else Printf.sprintf "%8s |" "");
      for c = 0 to width - 1 do
        if mean_words c +. 1e-9 >= threshold then
          Buffer.add_char buf (if waiting_time.(c) > active_time.(c) then '.' else '#')
        else Buffer.add_char buf ' '
      done;
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf (Printf.sprintf "%8s +%s\n" "" (String.make width '-'));
    Buffer.add_string buf
      (Printf.sprintf "%8s  0%*d us\n" "" (width - 1) t.span);
    Buffer.contents buf
  end
