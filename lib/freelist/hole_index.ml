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
  mutable hit_rank : int;  (* keys below the last hit of [first] *)
  mutable visits : int;  (* nodes stepped to by edits and queries *)
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
    hit_rank = 0;
    visits = 0;
  }

let length t = t.count.(t.root)

let largest t = t.largest.(t.root)

let hit_rank t = t.hit_rank

let visits t = t.visits

(* A hash of the slot (two xorshift-multiply rounds), not of the key, so
   that a node re-keyed by [change] keeps its place in the heap order.
   The hash is a bijection, so no two nodes tie, and the treap is a
   function of its (key, slot) pairs whatever the order of edits. *)
let[@inline] priority n =
  let h = (n lxor (n lsr 33)) * 0x3f51afd7ed558ccd in
  let h = (h lxor (h lsr 33)) * 0x04ceb9fe1a85ec53 in
  h lxor (h lsr 33)

let[@inline] update t n =
  let l = t.left.(n) and r = t.right.(n) in
  t.count.(n) <- t.count.(l) + t.count.(r) + 1;
  t.largest.(n) <- Int.max t.size.(n) (Int.max t.largest.(l) t.largest.(r))

(* Re-derives [n]'s largest size after one subtree below it changed;
   true if it moved, so that the ancestors stop once one stays put. *)
let settle t n =
  let l = t.left.(n) and r = t.right.(n) in
  let m = Int.max t.size.(n) (Int.max t.largest.(l) t.largest.(r)) in
  let moved = m <> t.largest.(n) in
  t.largest.(n) <- m;
  moved

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
  n

(* Hangs the keys of subtree [n] below [k] under [lo] and the others
   under [hi], in one pass down [k]'s search path.  Each side's first
   node hangs from the new node [i] ([left] for the low side, [right]
   for the high), and each later one from the side's previous node. *)
let rec split t k i n ~lo ~hi =
  if n = nil then begin
    if lo = i then t.left.(i) <- nil else t.right.(lo) <- nil;
    if hi = i then t.right.(i) <- nil else t.left.(hi) <- nil
  end
  else begin
    t.visits <- t.visits + 1;
    if t.key.(n) < k then begin
      if lo = i then t.left.(i) <- n else t.right.(lo) <- n;
      split t k i t.right.(n) ~lo:n ~hi
    end
    else begin
      if hi = i then t.right.(i) <- n else t.left.(hi) <- n;
      split t k i t.left.(n) ~lo ~hi:n
    end;
    update t n
  end

(* Steps down while [i]'s priority [p] is the lower, counting [i] into
   each node passed, then splits what lies below at [i]'s key [k] and
   puts [i] in its place. *)
let rec insert t i k p n =
  if n <> nil && priority n > p then begin
    t.visits <- t.visits + 1;
    t.count.(n) <- t.count.(n) + 1;
    t.largest.(n) <- Int.max t.largest.(n) t.size.(i);
    if k < t.key.(n) then t.left.(n) <- insert t i k p t.left.(n)
    else t.right.(n) <- insert t i k p t.right.(n);
    n
  end
  else begin
    split t k i n ~lo:i ~hi:i;
    update t i;
    i
  end

let add t ~key ~size =
  let i = node t ~key ~size in
  t.root <- insert t i key (priority i) t.root

(* Join two treaps, every key of [a] below every key of [b]. *)
let rec merge t a b =
  if a = nil then b
  else if b = nil then a
  else begin
    t.visits <- t.visits + 1;
    if priority a > priority b then begin
      t.right.(a) <- merge t t.right.(a) b;
      update t a;
      a
    end
    else begin
      t.left.(b) <- merge t a t.left.(b);
      update t b;
      b
    end
  end

let rec delete t n k =
  if n = nil then invalid_arg "Hole_index.remove: no such key";
  t.visits <- t.visits + 1;
  let key = t.key.(n) in
  if k = key then begin
    let joined = merge t t.left.(n) t.right.(n) in
    t.left.(n) <- t.spare;
    t.spare <- n;
    joined
  end
  else begin
    let c = if k < key then t.left.(n) else t.right.(n) in
    let before = t.largest.(c) in
    let c' = delete t c k in
    if k < key then t.left.(n) <- c' else t.right.(n) <- c';
    t.count.(n) <- t.count.(n) - 1;
    if t.largest.(c') <> before then ignore (settle t n : bool);
    n
  end

let remove t k = t.root <- delete t t.root k

let rec change_in t n k ~key ~size =
  if n = nil then invalid_arg "Hole_index.change: no such key";
  t.visits <- t.visits + 1;
  if k = t.key.(n) then begin
    t.key.(n) <- key;
    t.size.(n) <- size;
    settle t n
  end
  else
    change_in t (if k < t.key.(n) then t.left.(n) else t.right.(n)) k ~key ~size && settle t n

let change t k ~key ~size = ignore (change_in t t.root k ~key ~size : bool)

(* The queries below recurse at the top level, not through local
   closures, so that a query allocates nothing. *)
let rec rank_in t k n below =
  if n = nil then below
  else begin
    t.visits <- t.visits + 1;
    if k <= t.key.(n) then rank_in t k t.left.(n) below
    else rank_in t k t.right.(n) (below + t.count.(t.left.(n)) + 1)
  end

let rank t k = rank_in t k t.root 0

(* Subtrees whose largest size falls short are skipped whole, and only
   the subtrees along [from]'s search path can hold keys below it.
   [below] counts the keys passed on the right, so the hit's rank comes
   from the same descent. *)
let rec first_in t ~from ~needed n below =
  if n = nil then -1
  else begin
    t.visits <- t.visits + 1;
    if t.largest.(n) < needed then -1
    else if t.key.(n) < from then
      first_in t ~from ~needed t.right.(n) (below + t.count.(t.left.(n)) + 1)
    else begin
      let hit = first_in t ~from ~needed t.left.(n) below in
      if hit >= 0 then hit
      else begin
        let rank = below + t.count.(t.left.(n)) in
        if t.size.(n) >= needed then begin
          t.hit_rank <- rank;
          t.key.(n)
        end
        else first_in t ~from ~needed t.right.(n) (rank + 1)
      end
    end
  end

let first t ~from ~needed = first_in t ~from ~needed t.root 0

let rec last_in t ~needed n =
  if n = nil then -1
  else begin
    t.visits <- t.visits + 1;
    if t.largest.(n) < needed then -1
    else begin
      let above = last_in t ~needed t.right.(n) in
      if above >= 0 then above
      else if t.size.(n) >= needed then t.key.(n)
      else last_in t ~needed t.left.(n)
    end
  end

let last t ~needed = last_in t ~needed t.root

let fold t f init =
  let rec go n acc =
    if n = nil then acc
    else begin
      t.visits <- t.visits + 1;
      go t.left.(n) (f t.key.(n) t.size.(n) (go t.right.(n) acc))
    end
  in
  go t.root init

(* Keys strictly between [lo] and [hi], priorities below the parent's,
   and each summary equal to its children's. *)
let rec check_in t n ~lo ~hi ~above =
  if n = nil then Ok ()
  else begin
    let k = t.key.(n) and l = t.left.(n) and r = t.right.(n) in
    if k <= lo || k >= hi then Error (Printf.sprintf "key %d out of order" k)
    else if above <> nil && priority n > priority above then
      Error (Printf.sprintf "key %d above its parent in the heap order" k)
    else if t.count.(n) <> t.count.(l) + t.count.(r) + 1 then
      Error (Printf.sprintf "key %d counts %d nodes" k t.count.(n))
    else if t.largest.(n) <> Int.max t.size.(n) (Int.max t.largest.(l) t.largest.(r)) then
      Error (Printf.sprintf "key %d holds largest size %d" k t.largest.(n))
    else
      match check_in t l ~lo ~hi:k ~above:n with
      | Ok () -> check_in t r ~lo:k ~hi ~above:n
      | Error _ as e -> e
  end

let check t =
  if t.count.(nil) <> 0 || t.largest.(nil) <> 0 then Error "the sentinel holds a summary"
  else check_in t t.root ~lo:(-1) ~hi:max_int ~above:nil
