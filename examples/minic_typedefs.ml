(* MiniC: context-sensitive parsing with state tables, and language
   composition with the extension modules.

   The interesting line is `acc * scale;` — whether it parses as a
   declaration (pointer to typedef'd type) or an expression statement
   (multiplication) depends on whether `acc` names a typedef, which the
   grammar tracks through its state tables during the parse.

   Run with:  dune exec examples/minic_typedefs.exe  *)

open Rats

let program_expr =
  {|
int f(int acc, int scale) {
  acc * scale;          // multiplication: acc is a variable here
  return 0;
}
|}

let program_decl =
  {|
typedef unsigned int acc;
int f(int scale) {
  acc * scale;          // declaration: pointer-to-acc named scale
  return 0;
}
|}

let extended_program =
  {|
typedef int money;

money budget(int months, int rate) {
  money total = 0;
  until (total > 1000) {
    total = total + rate ** 2;
  }
  return total + query { select amount from ledger where amount < total };
}
|}

let rec find_nodes name (v : Value.t) =
  match v with
  | Value.Node n ->
      (if String.equal n.name name then [ v ] else [])
      @ List.concat_map (fun (_, c) -> find_nodes name c) n.children
  | Value.List vs -> List.concat_map (find_nodes name) vs
  | _ -> []

let () =
  let base = Result.get_ok (Rats.parser_of (Grammars.Minic.grammar ())) in
  let describe label src =
    match Engine.parse base src with
    | Ok tree ->
        let decls = List.length (find_nodes "Declaration" tree) in
        let exprs = List.length (find_nodes "ExprStatement" tree) in
        Printf.printf "%-28s declarations=%d expression-statements=%d\n" label
          decls exprs
    | Error e ->
        Printf.printf "%-28s error: %s\n" label (Parse_error.message e)
  in
  print_endline "the typedef problem (identical statement, different parse):";
  describe "without typedef:" program_expr;
  describe "with typedef:" program_decl;

  print_endline "\nthe composed extended language (**, until, query):";
  let ext = Result.get_ok (Rats.parser_of (Grammars.Minic.extended_grammar ())) in
  (match Engine.parse ext extended_program with
  | Ok tree ->
      Printf.printf "parsed: %d nodes, %d until-loops, %d queries, %d powers\n"
        (Value.count_nodes tree)
        (List.length (find_nodes "Until" tree))
        (List.length (find_nodes "Query" tree))
        (List.length (find_nodes "Power" tree))
  | Error e ->
      print_endline
        (Parse_error.to_string
           ~source:(Source.of_string ~name:"extended.c" extended_program)
           e));

  (* The base language must reject the extension constructs. *)
  match Engine.parse base extended_program with
  | Ok _ -> print_endline "BUG: base language accepted extended syntax"
  | Error e ->
      Printf.printf "base language rejects it, as it should: %s\n"
        (Parse_error.message e)
