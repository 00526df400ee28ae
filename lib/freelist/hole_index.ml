(* A treap in flat arrays, one slot per node.  Slot 0 is the nil
   sentinel: its count and largest size are 0, so [update] needs no
   branch.  Freed slots are chained through [left] from [spare]. *)
type t = {
  mutable key : int array;
  mutable size : int array;
  mutable left : int array;
  mutable right : int array;
  mutable count : int array;  (* nodes in the subtree *)
  mutable largest : int array;  (* largest size in the subtree *)
  mutable root : int;
  mutable spare : int;
  mutable slots : int;  (* slots in use or on the spare chain, with the sentinel *)
}

let nil = 0

let create () =
  let make () = Array.make 64 0 in
  {
    key = make ();
    size = make ();
    left = make ();
    right = make ();
    count = make ();
    largest = make ();
    root = nil;
    spare = nil;
    slots = 1;
  }

let length t = t.count.(t.root)

let largest t = t.largest.(t.root)

(* A hash of the slot (two xorshift-multiply rounds), not of the key, so
   that a node re-keyed by [change] keeps its place in the heap order. *)
let priority n =
  let h = (n lxor (n lsr 33)) * 0x3f51afd7ed558ccd in
  let h = (h lxor (h lsr 33)) * 0x04ceb9fe1a85ec53 in
  h lxor (h lsr 33)

let update t n =
  let l = t.left.(n) and r = t.right.(n) in
  t.count.(n) <- t.count.(l) + t.count.(r) + 1;
  t.largest.(n) <- Int.max t.size.(n) (Int.max t.largest.(l) t.largest.(r))

let rotate_right t n =
  let l = t.left.(n) in
  t.left.(n) <- t.right.(l);
  t.right.(l) <- n;
  update t n;
  update t l;
  l

let rotate_left t n =
  let r = t.right.(n) in
  t.right.(n) <- t.left.(r);
  t.left.(r) <- n;
  update t n;
  update t r;
  r

let grow t =
  let extend a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.key <- extend t.key;
  t.size <- extend t.size;
  t.left <- extend t.left;
  t.right <- extend t.right;
  t.count <- extend t.count;
  t.largest <- extend t.largest

let node t ~key ~size =
  let n =
    if t.spare <> nil then begin
      let n = t.spare in
      t.spare <- t.left.(n);
      n
    end
    else begin
      if t.slots = Array.length t.key then grow t;
      t.slots <- t.slots + 1;
      t.slots - 1
    end
  in
  t.key.(n) <- key;
  t.size.(n) <- size;
  t.left.(n) <- nil;
  t.right.(n) <- nil;
  update t n;
  n

let rec insert t n i =
  if n = nil then i
  else if t.key.(i) < t.key.(n) then begin
    t.left.(n) <- insert t t.left.(n) i;
    if priority t.left.(n) > priority n then rotate_right t n
    else begin
      update t n;
      n
    end
  end
  else begin
    t.right.(n) <- insert t t.right.(n) i;
    if priority t.right.(n) > priority n then rotate_left t n
    else begin
      update t n;
      n
    end
  end

let add t ~key ~size = t.root <- insert t t.root (node t ~key ~size)

(* Join two treaps, every key of [a] below every key of [b]. *)
let rec merge t a b =
  if a = nil then b
  else if b = nil then a
  else if priority a > priority b then begin
    t.right.(a) <- merge t t.right.(a) b;
    update t a;
    a
  end
  else begin
    t.left.(b) <- merge t a t.left.(b);
    update t b;
    b
  end

let rec delete t n k =
  if n = nil then invalid_arg "Hole_index.remove: no such key"
  else if k = t.key.(n) then begin
    let joined = merge t t.left.(n) t.right.(n) in
    t.left.(n) <- t.spare;
    t.spare <- n;
    joined
  end
  else begin
    if k < t.key.(n) then t.left.(n) <- delete t t.left.(n) k
    else t.right.(n) <- delete t t.right.(n) k;
    update t n;
    n
  end

let remove t k = t.root <- delete t t.root k

let rec change_in t n k ~key ~size =
  if n = nil then invalid_arg "Hole_index.change: no such key";
  if k = t.key.(n) then begin
    t.key.(n) <- key;
    t.size.(n) <- size
  end
  else change_in t (if k < t.key.(n) then t.left.(n) else t.right.(n)) k ~key ~size;
  update t n

let change t k ~key ~size = change_in t t.root k ~key ~size

(* The queries below recurse at the top level, not through local
   closures, so that a query allocates nothing. *)
let rec rank_in t k n below =
  if n = nil then below
  else if k <= t.key.(n) then rank_in t k t.left.(n) below
  else rank_in t k t.right.(n) (below + t.count.(t.left.(n)) + 1)

let rank t k = rank_in t k t.root 0

(* Subtrees whose largest size falls short are skipped whole, and only
   the subtrees along [from]'s search path can hold keys below it. *)
let rec first_in t ~from ~needed n =
  if n = nil || t.largest.(n) < needed then -1
  else if t.key.(n) < from then first_in t ~from ~needed t.right.(n)
  else begin
    let below = first_in t ~from ~needed t.left.(n) in
    if below >= 0 then below
    else if t.size.(n) >= needed then t.key.(n)
    else first_in t ~from ~needed t.right.(n)
  end

let first t ~from ~needed = first_in t ~from ~needed t.root

let rec last_in t ~needed n =
  if n = nil || t.largest.(n) < needed then -1
  else begin
    let above = last_in t ~needed t.right.(n) in
    if above >= 0 then above
    else if t.size.(n) >= needed then t.key.(n)
    else last_in t ~needed t.left.(n)
  end

let last t ~needed = last_in t ~needed t.root

let fold t f init =
  let rec go n acc =
    if n = nil then acc else go t.left.(n) (f t.key.(n) t.size.(n) (go t.right.(n) acc))
  in
  go t.root init
