(* The first column is left-aligned, the rest right-aligned. *)
let pad i width s =
  let fill = String.make (max 0 (width - String.length s)) ' ' in
  if i = 0 then s ^ fill else fill ^ s

let render ~headers rows =
  let ncols = List.length headers in
  assert (List.for_all (fun r -> List.length r = ncols) rows);
  let widths = Array.of_list (List.map String.length headers) in
  let note row = List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row in
  List.iter note rows;
  let line cells = String.concat "  " (List.mapi (fun i c -> pad i widths.(i) c) cells) in
  let rule = String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  let body = List.map line rows in
  String.concat "\n" ((line headers :: rule :: body) @ [ "" ])

let print ~headers rows = print_string (render ~headers rows)

let fmt_float ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x

let fmt_pct x = Printf.sprintf "%.1f%%" (100. *. x)
