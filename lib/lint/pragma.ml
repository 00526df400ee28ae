type scope = Line | File

type t = { line : int; scope : scope; rule : Rule.t }

type scan_result = { pragmas : t list; malformed : (int * string) list }

let marker = "lint:"

let is_space c = c = ' ' || c = '\t'

(* Only a marker opening a comment counts, i.e. "lint:" immediately
   preceded by the comment opener; the bare word can legitimately
   appear in string literals or prose (this very file contains both). *)
let opens_comment line i =
  let rec back j = if j >= 0 && is_space line.[j] then back (j - 1) else j in
  let j = back (i - 1) in
  j >= 1 && line.[j] = '*' && line.[j - 1] = '('

(* Offsets just past every comment-opening [marker] in [line]. *)
let marker_positions line =
  let ml = String.length marker in
  let n = String.length line in
  let rec loop i acc =
    if i + ml > n then List.rev acc
    else if String.sub line i ml = marker && opens_comment line i then
      loop (i + ml) ((i + ml) :: acc)
    else loop (i + 1) acc
  in
  loop 0 []

(* The next whitespace-delimited word of [s] at or after [i]. *)
let next_word s i =
  let n = String.length s in
  let rec skip i = if i < n && is_space s.[i] then skip (i + 1) else i in
  let start = skip i in
  let rec stop i = if i < n && not (is_space s.[i]) then stop (i + 1) else i in
  let fin = stop start in
  if fin = start then None else Some (String.sub s start (fin - start), fin)

(* The ids a pragma may name, e.g. "L1..L7", read off the rule list. *)
let rule_range =
  match (Rule.all, List.rev Rule.all) with
  | first :: _, last :: _ -> Printf.sprintf "%s..%s" (Rule.id first) (Rule.id last)
  | _ -> "no rules"

(* Parse one pragma starting right after its "lint:" marker.  The shape
   is `allow RULE — reason` or `allow-file RULE — reason`; the reason is
   mandatory (an allowlist entry without a why is itself a defect). *)
let parse_at ~lineno rest =
  match next_word rest 0 with
  | None -> Error (lineno, "empty lint pragma: expected `allow RULE — reason`")
  | Some (keyword, after_kw) ->
    let scope =
      match keyword with
      | "allow" -> Ok Line
      | "allow-file" -> Ok File
      | other ->
        Error
          (lineno, Printf.sprintf "unknown lint pragma keyword %S (allow, allow-file)" other)
    in
    (match scope with
     | Error _ as e -> e
     | Ok scope ->
       (match next_word rest after_kw with
        | None ->
          Error (lineno, Printf.sprintf "lint pragma names no rule (%s)" rule_range)
        | Some (rule_word, after_rule) ->
          (match Rule.of_string rule_word with
           | None ->
             Error
               ( lineno,
                 Printf.sprintf "lint pragma names unknown rule %S (%s)" rule_word
                   rule_range )
           | Some rule ->
             (* Anything substantive after the rule id is the reason;
                the comment closer alone does not count. *)
             let tail = String.sub rest after_rule (String.length rest - after_rule) in
             let has_reason =
               match next_word tail 0 with
               | None -> false
               | Some (w, after) ->
                 let w = if w = "—" || w = "-" || w = "--" then
                     (match next_word tail after with Some (w', _) -> w' | None -> "")
                   else w
                 in
                 w <> "" && w <> "*)"
             in
             if has_reason then Ok { line = lineno; scope; rule }
             else Error (lineno, "lint pragma gives no reason (allow RULE — reason)"))))

let scan source =
  let pragmas = ref [] in
  let malformed = ref [] in
  let lineno = ref 0 in
  String.split_on_char '\n' source
  |> List.iter (fun line ->
         incr lineno;
         List.iter
           (fun start ->
             let rest = String.sub line start (String.length line - start) in
             match parse_at ~lineno:!lineno rest with
             | Ok p -> pragmas := p :: !pragmas
             | Error e -> malformed := e :: !malformed)
           (marker_positions line));
  { pragmas = List.rev !pragmas; malformed = List.rev !malformed }
