(* The whole generator is its splitmix64 counter, kept in 8 bytes: a
   draw reads, advances and mixes it as an unboxed int64, so no draw
   that returns an int allocates. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* Checkpoint hooks: a saved state restores the exact stream position. *)
let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let state t = Bytes.get_int64_ne t 0

let create seed = of_state (Int64.of_int seed)

(* [derive ?override default]: the per-site historical seed, unless a
   global --seed overrides the run.  The override is folded into the
   site's own constant so distinct sites keep distinct streams while
   sites that deliberately share a constant (a regenerated trace) keep
   sharing one. *)
let derive ?override default =
  match override with
  | None -> create default
  | Some s -> create (s lxor default)

(* Inlined into every draw, so its result is never boxed. *)
let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t = next t

let split t = of_state (next t)

(* A non-negative 62-bit int, safe on 64-bit OCaml's 63-bit [int]. *)
let nonneg t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t n =
  assert (n > 0);
  nonneg t mod n

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next t) 1L = 1L

(* 53 random bits into [0, 1). *)
let[@inline] unit_float t =
  let mantissa = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int mantissa *. 0x1p-53

let float t x = unit_float t *. x

let exponential t mean =
  assert (mean > 0.);
  let u = unit_float t in
  -.mean *. log (1. -. u)

let geometric t p =
  assert (p > 0. && p <= 1.);
  if p >= 1. then 0
  else
    let u = unit_float t in
    int_of_float (floor (log (1. -. u) /. log (1. -. p)))

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
