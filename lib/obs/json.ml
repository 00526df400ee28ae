type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

(* No byte of [s] from [i] on needs an escape. *)
let rec clean s i =
  i = String.length s
  || match String.unsafe_get s i with
     | '"' | '\\' | '\000' .. '\031' -> false
     | _ -> clean s (i + 1)

let add_quoted buf s =
  Buffer.add_char buf '"';
  if clean s 0 then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* "0000" to "9999": ints are written four digits at a time. *)
let quads =
  String.init 40_000 (fun i ->
      Char.unsafe_chr (48 + (i / 4 / [| 1000; 100; 10; 1 |].(i mod 4) mod 10)))

(* The digits of [-n] for [n <= 0]: the negative side covers [min_int]. *)
let rec add_magnitude buf n =
  if n <= -10_000 then add_magnitude buf (n / 10_000);
  let q = -(n mod 10_000) in
  let width =
    if n <= -10_000 || q >= 1000 then 4 else if q >= 100 then 3 else if q >= 10 then 2 else 1
  in
  Buffer.add_substring buf quads ((4 * q) + 4 - width) width

let add_int buf n =
  if n < 0 then Buffer.add_char buf '-';
  add_magnitude buf (if n < 0 then n else -n)

(* Shortest %g form that still round-trips; %.17g always does. *)
let float_repr f =
  let rec shortest prec =
    if prec > 17 then Printf.sprintf "%.17g" f
    else
      let s = Printf.sprintf "%.*g" prec f in
      if float_of_string s = f then s else shortest (prec + 1)
  in
  shortest 12

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> add_int buf n
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (float_repr f)
  | String s -> add_quoted buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_quoted buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 64 in
  to_buffer buf v;
  Buffer.contents buf

(* --- parsing --- *)

exception Bad

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise Bad in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c = if peek () <> c then raise Bad else advance () in
  let literal word v =
    let l = String.length word in
    if !pos + l > n || String.sub s !pos l <> word then raise Bad;
    pos := !pos + l;
    v
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - 48
    | 'a' .. 'f' -> Char.code c - 87
    | 'A' .. 'F' -> Char.code c - 55
    | _ -> raise Bad
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        let c = peek () in
        advance ();
        (match c with
         | '"' | '\\' | '/' -> Buffer.add_char buf c
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           if !pos + 4 > n then raise Bad;
           let code = ref 0 in
           for i = 0 to 3 do
             code := (!code * 16) + hex s.[!pos + i]
           done;
           if !code > 0xff then raise Bad;
           Buffer.add_char buf (Char.chr !code);
           pos := !pos + 4
         | _ -> raise Bad);
        loop ()
      | c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' -> true
      | '.' | 'e' | 'E' ->
        is_float := true;
        true
      | _ -> false
    do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt tok with Some f -> Float f | None -> raise Bad
    else match int_of_string_opt tok with Some i -> Int i | None -> raise Bad
  in
  (* [items close item] reads "item, item, ... close" after the opener. *)
  let items close item =
    skip_ws ();
    if peek () = close then (advance (); [])
    else begin
      let rec loop acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | ',' -> advance (); loop acc
        | c when c = close -> advance (); List.rev acc
        | _ -> raise Bad
      in
      loop []
    end
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '"' -> String (parse_string ())
    | '-' | '0' .. '9' -> parse_number ()
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '[' -> advance (); List (items ']' value)
    | '{' ->
      advance ();
      Obj
        (items '}' (fun () ->
             skip_ws ();
             let k = parse_string () in
             skip_ws ();
             expect ':';
             (k, value ())))
    | _ -> raise Bad
  in
  try
    let v = value () in
    skip_ws ();
    if !pos <> n then raise Bad;
    Some v
  with Bad | Invalid_argument _ | Failure _ -> None

let flat s =
  match parse s with
  | Some (Obj fields)
    when List.for_all (fun (_, v) -> match v with Int _ | Float _ | String _ -> true | _ -> false)
           fields ->
    Some fields
  | _ -> None

(* --- reading values back --- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let int = function Some (Int n) -> Some n | _ -> None

let number = function
  | Some (Int n) -> Some (float_of_int n)
  | Some (Float f) -> Some f
  | _ -> None

let string = function Some (String s) -> Some s | _ -> None

let all results =
  List.fold_right
    (fun r acc ->
      match (r, acc) with Ok x, Ok xs -> Ok (x :: xs) | Error e, _ | _, Error e -> Error e)
    results (Ok [])

let document ~schema text =
  match parse text with
  | None -> Error "malformed JSON"
  | Some doc ->
    (match string (member "schema" doc) with
     | Some s when s = schema -> Ok doc
     | Some other -> Error (Printf.sprintf "schema %S, expected %S" other schema)
     | None -> Error "missing \"schema\" field")
