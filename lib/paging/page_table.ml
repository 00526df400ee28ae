type entry = {
  mutable frame : int;
  mutable present : bool;
  mutable modified : bool;
  mutable locked : bool;
}

type t = entry array

let create ~pages =
  assert (pages > 0);
  Array.init pages (fun _ -> { frame = -1; present = false; modified = false; locked = false })

let entry t page =
  if page < 0 || page >= Array.length t then
    invalid_arg (Printf.sprintf "Page_table: page %d outside name space" page);
  t.(page)

let frame_of t page =
  let e = entry t page in
  if e.present then Some e.frame else None

let install t ~page ~frame =
  let e = entry t page in
  assert (not e.present);
  e.frame <- frame;
  e.present <- true;
  e.modified <- false

let evict t ~page =
  let e = entry t page in
  if not e.present then invalid_arg "Page_table.evict: page not resident";
  if e.locked then invalid_arg "Page_table.evict: page is locked";
  e.present <- false;
  e.frame <- -1

let mark_modified t ~page = (entry t page).modified <- true

let modified t ~page = (entry t page).modified

let lock t ~page = (entry t page).locked <- true

let unlock t ~page = (entry t page).locked <- false

let locked t ~page = (entry t page).locked
