type code = Rule of Rule.t | Parse_error | Bad_pragma

type t = { file : string; line : int; col : int; code : code; message : string }

let code_id = function
  | Rule r -> Rule.id r
  | Parse_error -> "parse"
  | Bad_pragma -> "pragma"

let code_slug = function
  | Rule r -> Rule.slug r
  | Parse_error -> "parse-error"
  | Bad_pragma -> "bad-pragma"

let compare a b =
  match Stdlib.compare a.file b.file with
  | 0 ->
    (match Stdlib.compare a.line b.line with
     | 0 ->
       (match Stdlib.compare a.col b.col with
        | 0 -> Stdlib.compare (code_id a.code) (code_id b.code)
        | c -> c)
     | c -> c)
  | c -> c

let to_string d =
  Printf.sprintf "%s:%d:%d: [%s %s] %s" d.file d.line d.col (code_id d.code)
    (code_slug d.code) d.message

let to_json d =
  Obs.Json.Obj
    [
      ("file", Obs.Json.String d.file);
      ("line", Obs.Json.Int d.line);
      ("col", Obs.Json.Int d.col);
      ("rule", Obs.Json.String (code_id d.code));
      ("name", Obs.Json.String (code_slug d.code));
      ("message", Obs.Json.String d.message);
    ]
