type scheme =
  | Linear of { lo : int; width : int }
  | Log2

type t = {
  scheme : scheme;
  counts : int array;
  mutable total : int;
  mutable min_v : int;
  mutable max_v : int;
  mutable samples : int array;  (* the first [total] are every sample added *)
  mutable sorted : bool;  (* and they are in ascending order *)
}

let linear ~lo ~hi ~buckets =
  assert (lo < hi && buckets > 0);
  let width = max 1 ((hi - lo + buckets - 1) / buckets) in
  { scheme = Linear { lo; width };
    counts = Array.make buckets 0;
    total = 0;
    min_v = max_int;
    max_v = min_int;
    samples = [||];
    sorted = true }

let log2 ~max_exponent =
  assert (max_exponent >= 0);
  { scheme = Log2;
    counts = Array.make (max_exponent + 2) 0;
    total = 0;
    min_v = max_int;
    max_v = min_int;
    samples = [||];
    sorted = true }

let clamp n lo hi = if n < lo then lo else if n > hi then hi else n

let bucket_of t x =
  let n = Array.length t.counts in
  match t.scheme with
  | Linear { lo; width } -> clamp ((x - lo) / width) 0 (n - 1)
  | Log2 ->
    if x <= 0 then 0
    else
      (* bucket i>=1 holds [2^(i-1), 2^i). *)
      let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
      clamp (bits 0 x) 1 (n - 1)

let add t x =
  t.counts.(bucket_of t x) <- t.counts.(bucket_of t x) + 1;
  if t.total = Array.length t.samples then begin
    let grown = Array.make (max 16 (2 * t.total)) 0 in
    Array.blit t.samples 0 grown 0 t.total;
    t.samples <- grown
  end;
  t.samples.(t.total) <- x;
  t.sorted <- t.sorted && (t.total = 0 || t.samples.(t.total - 1) <= x);
  t.total <- t.total + 1;
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.total

let min_value t = if t.total = 0 then None else Some t.min_v

let max_value t = if t.total = 0 then None else Some t.max_v

let lower_bound t i =
  match t.scheme with
  | Linear { lo; width } -> lo + (i * width)
  | Log2 -> if i = 0 then 0 else 1 lsl (i - 1)

let label t i =
  match t.scheme with
  | Linear { lo; width } ->
    Printf.sprintf "[%d,%d)" (lo + (i * width)) (lo + ((i + 1) * width))
  | Log2 ->
    if i = 0 then "0"
    else if i = 1 then "1"
    else Printf.sprintf "[%d,%d)" (1 lsl (i - 1)) (1 lsl i)

let bucket_counts t = Array.init (Array.length t.counts) (fun i -> (label t i, t.counts.(i)))

(* The rank rule: the [ceil (p * n)]-th smallest sample (at least the
   first). *)
let percentile t p =
  assert (p >= 0. && p <= 1.);
  if t.total = 0 then 0
  else begin
    if not t.sorted then begin
      let a = Array.sub t.samples 0 t.total in
      Array.sort Int.compare a;
      t.samples <- a;
      t.sorted <- true
    end;
    let rank = max 1 (int_of_float (ceil (p *. float_of_int t.total))) in
    t.samples.(min rank t.total - 1)
  end

let percentiles t ps = List.map (fun p -> (p, percentile t p)) ps
