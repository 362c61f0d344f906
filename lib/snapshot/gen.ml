(* Print blobs.ml: [all], one [(name, raw, optimized)] triple per
   built-in. Each is a grammar's analysis marshalled in one value with
   its grammar, sharing intact, after preparing the grammar and
   compiling every body, of the engine and of its session engine: the
   facts a run's prepare and compile, and a session's, read travel with
   the grammar. *)

let blob optimize name =
  let fail ds =
    List.iter (fun d -> prerr_endline (Rats.Diagnostic.to_string d)) ds;
    exit 1
  in
  match Rats.Run.analysis_of { Rats.Run.default with builtin = Some name; optimize } with
  | Error ds -> fail ds
  | Ok a -> (
      match Rats.Engine.prepare_analysis a with
      | Error ds -> fail ds
      | Ok eng ->
          Rats.Engine.compile_all eng;
          Rats.Engine.compile_all (Rats.Engine.for_session eng);
          Marshal.to_string (a : Rats.Analysis.t) [])

let () =
  print_endline "(* Generated by gen.exe at build time; do not edit. *)";
  print_endline "let all = [";
  List.iter
    (fun (name, _) -> Printf.printf "  (%S, %S, %S);\n" name (blob false name) (blob true name))
    Rats.Run.builtins;
  print_endline "]"
