(* Print blobs.ml: [all], one [(name, raw, optimized)] triple per
   built-in, each grammar marshalled with its sharing intact. *)

let blob optimize name =
  match Rats.Run.grammar_of { Rats.Run.default with builtin = Some name; optimize } with
  | Ok (g : Rats.Grammar.t) -> Marshal.to_string g []
  | Error ds ->
      List.iter (fun d -> prerr_endline (Rats.Diagnostic.to_string d)) ds;
      exit 1

let () =
  print_endline "(* Generated by gen.exe at build time; do not edit. *)";
  print_endline "let all = [";
  List.iter
    (fun (name, _) -> Printf.printf "  (%S, %S, %S);\n" name (blob false name) (blob true name))
    Rats.Run.builtins;
  print_endline "]"
