type t = {
  name : string;
  words : int;
  bytes : Bytes.t;
  mutable reads : int;
  mutable writes : int;
}

exception Bound_violation of { store : string; address : int; extent : int }

let create ~name ~words =
  assert (words > 0);
  { name; words; bytes = Bytes.make (words * 8) '\000'; reads = 0; writes = 0 }

let name t = t.name

let size t = t.words

let check t address =
  if address < 0 || address >= t.words then
    raise (Bound_violation { store = t.name; address; extent = t.words })

let check_range t off len =
  if len < 0 then raise (Bound_violation { store = t.name; address = off; extent = t.words });
  if len > 0 then begin
    check t off;
    check t (off + len - 1)
  end

let read t address =
  check t address;
  t.reads <- t.reads + 1;
  Bytes.get_int64_le t.bytes (address * 8)

let write t address v =
  check t address;
  t.writes <- t.writes + 1;
  Bytes.set_int64_le t.bytes (address * 8) v

let read_int t address =
  check t address;
  t.reads <- t.reads + 1;
  Int64.to_int (Bytes.get_int64_le t.bytes (address * 8))

let write_int t address v =
  check t address;
  t.writes <- t.writes + 1;
  Bytes.set_int64_le t.bytes (address * 8) (Int64.of_int v)

let blit ~src ~src_off ~dst ~dst_off ~len =
  check_range src src_off len;
  check_range dst dst_off len;
  Bytes.blit src.bytes (src_off * 8) dst.bytes (dst_off * 8) (len * 8);
  src.reads <- src.reads + len;
  dst.writes <- dst.writes + len

let fill t ~off ~len v =
  check_range t off len;
  for i = off to off + len - 1 do
    Bytes.set_int64_le t.bytes (i * 8) v
  done;
  t.writes <- t.writes + len

let reads t = t.reads

let writes t = t.writes
