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

let add t x =
  let at = position t x in
  if t.n = Array.length t.set then invalid_arg "Resident.add: full";
  if at < t.n && t.set.(at) = x then invalid_arg "Resident.add: already a member";
  Array.blit t.set at t.set (at + 1) (t.n - at);
  t.set.(at) <- x;
  t.n <- t.n + 1

let remove t x =
  let at = position t x in
  if at = t.n || t.set.(at) <> x then invalid_arg "Resident.remove: not a member";
  Array.blit t.set (at + 1) t.set at (t.n - at - 1);
  t.n <- t.n - 1

let lowest t = if t.n = 0 then None else Some t.set.(0)

let elements t = if t.n = Array.length t.set then t.set else Array.sub t.set 0 t.n

let filter t keep =
  let out = Array.make t.n 0 and kept = ref 0 in
  for i = 0 to t.n - 1 do
    let x = t.set.(i) in
    if keep x then begin
      out.(!kept) <- x;
      incr kept
    end
  done;
  if !kept = t.n then out else Array.sub out 0 !kept
