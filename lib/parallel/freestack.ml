(* Treiber stack: an atomic head pointing at an immutable cons chain.
   Push and pop retry their CAS until the head they read is still the
   head they swap — the standard lock-free loop.  No ABA guard is
   needed: cells are immutable OCaml blocks, and a cell popped while
   another domain holds a reference to it cannot be reused as a
   different value at the same address by the GC. *)

type 'a t = { head : 'a list Atomic.t }

let create () = { head = Atomic.make [] }

let rec push t v =
  let old = Atomic.get t.head in
  if not (Atomic.compare_and_set t.head old (v :: old)) then push t v

let rec pop t =
  match Atomic.get t.head with
  | [] -> None
  | v :: rest as old ->
    if Atomic.compare_and_set t.head old rest then Some v else pop t

let is_empty t = match Atomic.get t.head with [] -> true | _ :: _ -> false

let length t = List.length (Atomic.get t.head)
