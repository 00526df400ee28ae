type t = { set : int array; mutable n : int }

let create ~capacity = { set = Array.make capacity 0; n = 0 }

let length t = t.n

(* The index of the first member >= [x]. *)
let position t x =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.set.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let mem t x =
  let at = position t x in
  at < t.n && t.set.(at) = x

(* Shifts are plain loops over an int array: [Array.blit] is a C call
   that, once the array has been promoted, runs [caml_modify] on every
   word it moves. *)

let add t x =
  let at = position t x in
  if t.n = Array.length t.set then invalid_arg "Resident.add: full";
  if at < t.n && t.set.(at) = x then invalid_arg "Resident.add: already a member";
  let set = t.set in
  for i = t.n downto at + 1 do
    set.(i) <- set.(i - 1)
  done;
  set.(at) <- x;
  t.n <- t.n + 1

let remove t x =
  let at = position t x in
  if at = t.n || t.set.(at) <> x then invalid_arg "Resident.remove: not a member";
  let set = t.set in
  for i = at to t.n - 2 do
    set.(i) <- set.(i + 1)
  done;
  t.n <- t.n - 1

(* One shift between the victim's slot and [x]'s: the members between
   move one place toward the victim's slot, and [x] takes the slot they
   leave.  Only the victim is found by bisection.  The walk to [x]'s
   place is the shift itself, undone if it meets [x]. *)
let replace t ~victim x =
  let at = position t victim in
  if at = t.n || t.set.(at) <> victim then invalid_arg "Resident.replace: not a member";
  let set = t.set and i = ref at in
  if x > victim then begin
    while !i + 1 < t.n && set.(!i + 1) < x do
      set.(!i) <- set.(!i + 1);
      incr i
    done;
    if !i + 1 < t.n && set.(!i + 1) = x then begin
      for j = !i downto at + 1 do
        set.(j) <- set.(j - 1)
      done;
      set.(at) <- victim;
      invalid_arg "Resident.replace: already a member"
    end
  end
  else if x < victim then begin
    while !i > 0 && set.(!i - 1) > x do
      set.(!i) <- set.(!i - 1);
      decr i
    done;
    if !i > 0 && set.(!i - 1) = x then begin
      for j = !i to at - 1 do
        set.(j) <- set.(j + 1)
      done;
      set.(at) <- victim;
      invalid_arg "Resident.replace: already a member"
    end
  end;
  set.(!i) <- x

let lowest t = if t.n = 0 then None else Some t.set.(0)

let elements t = if t.n = Array.length t.set then t.set else Array.sub t.set 0 t.n
