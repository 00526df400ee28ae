(* Entries carry an insertion sequence number so that equal keys pop in
   FIFO order, keeping event-driven simulations deterministic. *)
type 'a entry = { key : int; seq : int; value : 'a }

type 'a t = {
  mutable entries : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { entries = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0

let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let ensure_capacity t =
  let cap = Array.length t.entries in
  if t.size >= cap then begin
    let dummy = t.entries.(0) in
    let grown = Array.make (max 8 (2 * cap)) dummy in
    Array.blit t.entries 0 grown 0 t.size;
    t.entries <- grown
  end

let sift_up t i0 =
  let e = t.entries.(i0) in
  let rec loop i =
    if i = 0 then i
    else
      let parent = (i - 1) / 2 in
      if less e t.entries.(parent) then begin
        t.entries.(i) <- t.entries.(parent);
        loop parent
      end
      else i
  in
  t.entries.(loop i0) <- e

let sift_down t i0 =
  let e = t.entries.(i0) in
  let rec loop i =
    let l = (2 * i) + 1 in
    if l >= t.size then i
    else
      let r = l + 1 in
      let child = if r < t.size && less t.entries.(r) t.entries.(l) then r else l in
      if less t.entries.(child) e then begin
        t.entries.(i) <- t.entries.(child);
        loop child
      end
      else i
  in
  t.entries.(loop i0) <- e

let add t key value =
  let entry = { key; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  if t.size = 0 && Array.length t.entries = 0 then t.entries <- Array.make 8 entry;
  ensure_capacity t;
  t.entries.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let min t = if t.size = 0 then None else Some (t.entries.(0).key, t.entries.(0).value)

let min_key t = if t.size = 0 then invalid_arg "Heap.min_key: empty heap" else t.entries.(0).key

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.entries.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.entries.(0) <- t.entries.(t.size);
      sift_down t 0
    end;
    Some (top.key, top.value)
  end
