(* Self-hosting: parse a .rats grammar file with the PEG grammar of the
   module language — which is itself written in the module language
   (lib/grammars/texts.ml, rats.Syntax), the way Rats! bootstraps.

   Run with:  dune exec examples/selfhost.exe -- grammars/tutorial.rats
              dune exec examples/selfhost.exe          (parses the calc grammar)  *)

open Rats

let () =
  let text, name =
    match Sys.argv with
    | [| _; path |] ->
        (In_channel.with_open_bin path In_channel.input_all, path)
    | _ -> (List.hd Grammars.Calc.texts, "<built-in calc grammar>")
  in
  let g = Grammars.Metagrammar.grammar () in
  Printf.printf
    "the module language, described in itself: %d productions\n"
    (Grammar.length g);
  let parser = Result.get_ok (Rats.parser_of g) in
  match Engine.parse parser text with
  | Error e ->
      print_endline (Parse_error.to_string ~source:(Source.of_string ~name text) e)
  | Ok tree ->
      (* Count the module declarations and their items in the tree the
         self-hosted grammar produced. *)
      let rec count name (v : Value.t) =
        match v with
        | Value.Node n ->
            (if String.equal n.name name then 1 else 0)
            + List.fold_left (fun acc (_, c) -> acc + count name c) 0 n.children
        | Value.List vs -> List.fold_left (fun acc v -> acc + count name v) 0 vs
        | _ -> 0
      in
      Printf.printf "%s:\n  %d modules, %d dependencies, %d items, %d nodes\n"
        name (count "ModuleDecl" tree) (count "Dependency" tree)
        (count "Define" tree + count "Add" tree + count "Remove" tree)
        (Value.count_nodes tree);
      (* Cross-check against the hand-written front end. *)
      match Meta_parser.parse_modules_string text with
      | Ok ms ->
          Printf.printf "  hand-written front end agrees: %d modules\n"
            (List.length ms)
      | Error _ -> print_endline "  hand-written front end disagrees!?"
