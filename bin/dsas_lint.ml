(* dsas_lint: enforce the repo's determinism & invariant rules over the
   source tree.

   `dsas_lint lib bin`          lint every .ml under lib/ and bin/
   `dsas_lint --json lib bin`   machine-readable diagnostics
   `dsas_lint --list-rules`     what each rule means, for pragma authors

   Exit 0 when clean, 1 on any diagnostic.  A violation is suppressed
   by a comment whose text begins `lint: allow RULE — reason`, on the
   offending line or the one above it; see --list-rules. *)

open Cmdliner

let paths_arg =
  Arg.(value & pos_all string [ "lib" ] & info [] ~docv:"PATH"
         ~doc:"Files or directories to lint (default: lib).")

let json_flag =
  let doc = "Emit diagnostics as a single JSON object on stdout." in
  Arg.(value & flag & info [ "json" ] ~doc)

let list_rules_flag =
  let doc = "List every rule id with what it enforces, then exit." in
  Arg.(value & flag & info [ "list-rules" ] ~doc)

let boundary_arg =
  Arg.(value & opt_all string [] & info [ "boundary" ] ~docv:"DIR"
         ~doc:"Extra directory name treated as an L4 boundary (repeatable). \
               Defaults: experiments, bin, test, bench.")

let print_rules () =
  List.iter
    (fun r ->
      Printf.printf "%s (%s)\n    %s\n" (Lint.Rule.id r) (Lint.Rule.slug r)
        (Lint.Rule.summary r))
    Lint.Rule.all;
  print_endline
    "\nSuppress one finding with a comment whose text begins `lint: allow RULE \
     — reason`,\non the offending line or the line above; one that begins \
     `lint: allow-file RULE — reason`\ncovers a file.  The reason is \
     mandatory, and a pragma that suppresses nothing is\nitself an error."

let run paths json list_rules boundaries =
  if list_rules then begin
    print_rules ();
    `Ok ()
  end
  else begin
    let config =
      {
        Lint.Engine.boundary_dirs =
          Lint.Engine.default_config.Lint.Engine.boundary_dirs @ boundaries;
      }
    in
    let missing = List.filter (fun p -> not (Sys.file_exists p)) paths in
    match missing with
    | p :: _ -> `Error (false, Printf.sprintf "no such file or directory: %s" p)
    | [] ->
      let files, diagnostics = Lint.Engine.lint_paths ~config paths in
      if json then
        print_endline
          (Obs.Json.to_string
             (Obs.Json.Obj
                [
                  ("files", Obs.Json.Int (List.length files));
                  ("count", Obs.Json.Int (List.length diagnostics));
                  ("violations", Obs.Json.List (List.map Lint.Diagnostic.to_json diagnostics));
                ]))
      else
        List.iter (fun d -> print_endline (Lint.Diagnostic.to_string d)) diagnostics;
      if diagnostics = [] then begin
        if not json then
          Printf.printf "dsas_lint: %d file(s) clean\n" (List.length files);
        `Ok ()
      end
      else
        `Error
          ( false,
            Printf.sprintf "%d violation(s) in %d file(s)"
              (List.length diagnostics) (List.length files) )
  end

let main =
  let doc = "Static determinism & invariant checks for the dsas source tree" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses every .ml file with the OCaml compiler's parser and enforces \
         the repo rules: no nondeterminism sources in simulation code (L1), \
         no Obj.magic (L2), no hash-order iteration (L3), no bare partial \
         functions outside boundary modules (L4), no float equality (L5).  \
         See --list-rules for the full statement of each rule and the pragma \
         syntax.";
    ]
  in
  let info = Cmd.info "dsas_lint" ~version:"1.0.0" ~doc ~man in
  Cmd.v info Term.(ret (const run $ paths_arg $ json_flag $ list_rules_flag $ boundary_arg))

let () = exit (Cmd.eval main)
