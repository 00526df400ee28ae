type t =
  | Fixed of { device : Memstore.Device.t }
  | Drum of { sectors : int; rotation_us : int; word_ns : int }
  | Disk of {
      cylinders : int;
      sectors : int;
      rotation_us : int;
      seek_base_us : int;
      seek_per_cyl_us : int;
      word_ns : int;
    }

let ceil_div a b = (a + b - 1) / b

let fixed device = Fixed { device }

let fixed_us fetch_us =
  assert (fetch_us >= 0);
  Fixed { device = Memstore.Device.custom ~label:"fixed" ~latency_us:fetch_us ~word_ns:0 }

let drum ?(word_ns = 0) ~sectors ~rotation_us () =
  assert (sectors > 0 && rotation_us > 0 && rotation_us mod sectors = 0 && word_ns >= 0);
  Drum { sectors; rotation_us; word_ns }

let disk ?(word_ns = 0) ~cylinders ~sectors ~rotation_us ~seek_base_us ~seek_per_cyl_us () =
  assert (cylinders > 0 && sectors > 0 && rotation_us > 0);
  assert (rotation_us mod sectors = 0 && seek_base_us >= 0 && seek_per_cyl_us >= 0);
  assert (word_ns >= 0);
  Disk { cylinders; sectors; rotation_us; seek_base_us; seek_per_cyl_us; word_ns }

let atlas_drum = drum ~sectors:16 ~rotation_us:16_000 ()

let paper_disk =
  disk ~cylinders:100 ~sectors:8 ~rotation_us:24_000 ~seek_base_us:10_000
    ~seek_per_cyl_us:500 ()

let label = function
  | Fixed { device } -> device.Memstore.Device.label
  | Drum _ -> "drum"
  | Disk _ -> "disk"

let words_us ~word_ns ~words = ceil_div (words * word_ns) 1000

(* Earliest time >= [now] at which [sector] begins passing the heads
   (the drum/disk surface rotates continuously from t = 0). *)
let next_pass ~sectors ~sector_us ~rotation_us ~now ~sector =
  let slot = now / sector_us in
  let phase = slot mod sectors in
  let delta = (sector - phase + sectors) mod sectors in
  let candidate = (slot + delta) * sector_us in
  if candidate >= now then candidate else candidate + rotation_us

let sector_of t ~page =
  match t with
  | Fixed _ -> 0
  | Drum { sectors; _ } | Disk { sectors; _ } -> ((page mod sectors) + sectors) mod sectors

let cylinder_of t ~page =
  match t with
  | Fixed _ | Drum _ -> 0
  | Disk { cylinders; sectors; _ } ->
    (((page / sectors) mod cylinders) + cylinders) mod cylinders

let start_us t ~at ~head ~page =
  match t with
  | Fixed _ -> at
  | Drum { sectors; rotation_us; _ } ->
    next_pass ~sectors ~sector_us:(rotation_us / sectors) ~rotation_us ~now:at
      ~sector:(sector_of t ~page)
  | Disk { sectors; rotation_us; seek_base_us; seek_per_cyl_us; _ } ->
    let cyl = cylinder_of t ~page in
    let seek = if head = cyl then 0 else seek_base_us + (seek_per_cyl_us * abs (head - cyl)) in
    next_pass ~sectors ~sector_us:(rotation_us / sectors) ~rotation_us ~now:(at + seek)
      ~sector:(sector_of t ~page)

let service t ~at ~head ~page ~words =
  assert (at >= 0 && words >= 0);
  let start = start_us t ~at ~head ~page in
  match t with
  | Fixed { device } -> (start, start + Memstore.Device.transfer_us device ~words, head)
  | Drum { sectors; rotation_us; word_ns } ->
    (start, start + (rotation_us / sectors) + words_us ~word_ns ~words, head)
  | Disk { sectors; rotation_us; word_ns; _ } ->
    ( start,
      start + (rotation_us / sectors) + words_us ~word_ns ~words,
      cylinder_of t ~page )

let worst_us t ~words =
  match t with
  | Fixed { device } -> Memstore.Device.transfer_us device ~words
  | Drum { sectors; rotation_us; word_ns } ->
    rotation_us + (rotation_us / sectors) + words_us ~word_ns ~words
  | Disk { cylinders; sectors; rotation_us; seek_base_us; seek_per_cyl_us; word_ns } ->
    seek_base_us
    + (seek_per_cyl_us * cylinders)
    + rotation_us
    + (rotation_us / sectors)
    + words_us ~word_ns ~words
