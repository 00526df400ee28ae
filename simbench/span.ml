(* Host-time spans, kept in memory.

   A span is one interval of host time spent inside a call the
   benchmark makes into a layer.  Spans nest: the one open when another
   starts is its parent.  Recording every interval individually would
   cost memory proportional to the references simulated, so each named
   span keeps running totals instead — intervals, total duration, and
   the part of that duration its children covered — plus the parent it
   was first seen under.  A span's self time is its total minus its
   children's; because every child interval is subtracted from exactly
   one parent, the self times of all spans add up to the duration of
   the outermost one. *)

type node = {
  name : string;
  mutable parent : string;
  mutable total_ns : int;
  mutable child_ns : int;
  mutable count : int;
}

type t = {
  mutable nodes : node list;  (* newest first *)
  stack : node array;
  starts : int array;
  mutable depth : int;
}

let max_depth = 64

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create () =
  let dummy = { name = ""; parent = ""; total_ns = 0; child_ns = 0; count = 0 } in
  { nodes = []; stack = Array.make max_depth dummy; starts = Array.make max_depth 0; depth = 0 }

let find t name = List.find_opt (fun n -> String.equal n.name name) t.nodes

(* The node for [name], created on first use.  Callers look nodes up
   once per pass, outside the timed calls. *)
let node t name =
  match find t name with
  | Some n -> n
  | None ->
    let n = { name; parent = ""; total_ns = 0; child_ns = 0; count = 0 } in
    t.nodes <- n :: t.nodes;
    n

let enter t n =
  if t.depth >= max_depth then failwith "Span.enter: spans nested too deeply";
  if n.count = 0 && t.depth > 0 then n.parent <- t.stack.(t.depth - 1).name;
  t.stack.(t.depth) <- n;
  t.starts.(t.depth) <- now_ns ();
  t.depth <- t.depth + 1

let leave t =
  let stop = now_ns () in
  t.depth <- t.depth - 1;
  let n = t.stack.(t.depth) in
  let d = stop - t.starts.(t.depth) in
  n.total_ns <- n.total_ns + d;
  n.count <- n.count + 1;
  if t.depth > 0 then begin
    let p = t.stack.(t.depth - 1) in
    p.child_ns <- p.child_ns + d
  end

(* Record [ns] measured by another clock reading over [count]
   intervals as a child [name] of [parent]: the time moves out of the
   parent's self time, so the self times still add up. *)
let add_child t ~parent ~name ~count ns =
  let n = node t name and p = node t parent in
  if n.count = 0 then n.parent <- parent;
  n.total_ns <- n.total_ns + ns;
  n.count <- n.count + count;
  p.child_ns <- p.child_ns + ns

let depth t = t.depth

(* Close the spans opened above [depth], as after an exception escaped
   a wrapped call. *)
let unwind_to t depth =
  while t.depth > depth do
    leave t
  done

let self_ns n = n.total_ns - n.child_ns

let nodes t = List.rev t.nodes

(* Self time of [name] in nanoseconds; 0 for a span never entered. *)
let self_of t name = match find t name with Some n -> self_ns n | None -> 0
