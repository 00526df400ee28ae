let min_block = 4

let overhead = 2

let null = -1

type tag = { size : int; allocated : bool }

let encode { size; allocated } = (size lsl 1) lor (if allocated then 1 else 0)

let decode n = { size = n lsr 1; allocated = n land 1 = 1 }

let read_header mem ~base off = decode (Memstore.Physical.read_int mem (base + off))

let read_footer mem ~base off = decode (Memstore.Physical.read_int mem (base + off - 1))

let write_tags mem ~base off tag =
  assert (tag.size >= 2);
  let v = encode tag in
  Memstore.Physical.write_int mem (base + off) v;
  Memstore.Physical.write_int mem (base + off + tag.size - 1) v

let read_next mem ~base off = Memstore.Physical.read_int mem (base + off + 1)

let read_prev mem ~base off = Memstore.Physical.read_int mem (base + off + 2)

let write_next mem ~base off v = Memstore.Physical.write_int mem (base + off + 1) v

let write_prev mem ~base off v = Memstore.Physical.write_int mem (base + off + 2) v
