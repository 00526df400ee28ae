let min_block = 4

let overhead = 2

let null = -1

let tag ~size ~allocated = (size lsl 1) lor if allocated then 1 else 0

let size tag = tag lsr 1

let allocated tag = tag land 1 = 1

let read_header mem ~base off = Memstore.Physical.read_int mem (base + off)

let read_footer mem ~base off = Memstore.Physical.read_int mem (base + off - 1)

let write_tags mem ~base off ~size ~allocated =
  assert (size >= 2);
  let v = tag ~size ~allocated in
  Memstore.Physical.write_int mem (base + off) v;
  Memstore.Physical.write_int mem (base + off + size - 1) v
