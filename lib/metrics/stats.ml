(* All floats, so the record is stored flat and [add] boxes nothing;
   [count] holds whole numbers, exact up to 2^53 samples. *)
type t = {
  mutable count : float;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable total : float;
}

let create () =
  { count = 0.; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; total = 0. }

let add t x =
  t.count <- t.count +. 1.;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.total <- t.total +. x

let count t = int_of_float t.count

let mean t = if t.count < 1. then 0. else t.mean

let variance t = if t.count < 2. then 0. else t.m2 /. t.count

let stddev t = sqrt (variance t)

let min t = t.min

let max t = t.max

let total t = t.total

type fit = {
  slope : float;
  intercept : float;
  r_square : float;
}

let linfit points =
  let n = List.length points in
  if n < 2 then None
  else begin
    let nf = float_of_int n in
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0. points in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0. points in
    let mx = sx /. nf and my = sy /. nf in
    let sxx = List.fold_left (fun a (x, _) -> a +. ((x -. mx) *. (x -. mx))) 0. points in
    let syy = List.fold_left (fun a (_, y) -> a +. ((y -. my) *. (y -. my))) 0. points in
    let sxy =
      List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0. points
    in
    if sxx <= 0. then None
    else begin
      let slope = sxy /. sxx in
      let intercept = my -. (slope *. mx) in
      (* All y equal: the flat line explains everything. *)
      let r_square = if syy <= 0. then 1. else sxy *. sxy /. (sxx *. syy) in
      Some { slope; intercept; r_square }
    end
  end
