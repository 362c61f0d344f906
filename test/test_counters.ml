(* Exact run counters on fixed documents.

   Every other suite checks what a parse returns, or that two runs
   agree with each other; this one pins how much work a run does. Each
   case parses one seeded document under one configuration and
   compares the whole [Stats] record against literals recorded when the
   memo protocol had seven hand-written copies. A refactor of the memo
   path must keep every count — hits, misses, stores, chunk traffic,
   degradations and fuel — exactly. On a mismatch the failure message
   prints the measured record in the table's own syntax. *)

open Rats

(* A grammar that spends most of its invocations in predicates:
   keywords guarded by [!IdChar], names by [!Keyword], numbers by a
   leading [&] and a trailing [!]. *)
let pred_source =
  {|module Pred;

public generic Doc = Sp Item* !. ;
generic Item = Keyword / Name / Num / Group ;
generic Group = void:'(' Sp Item* void:')' Sp ;
Keyword = $( ("let" / "in" / "fun") !IdChar ) Sp ;
Name = !Keyword $( &[a-z_] [a-z_] IdChar* ) Sp ;
Num = $( &[0-9] [0-9]+ !IdChar ) Sp ;
transient void IdChar = [a-z0-9_] ;
transient void Sp = ([ \n] / Comment)* ;
transient void Comment = "--" (!'\n' .)* ;
|}

let pred_grammar () =
  let ok = function
    | Ok x -> x
    | Error (d :: _) -> failwith (Diagnostic.to_string d)
    | Error [] -> assert false
  in
  ok (compose ~root:"Pred" (ok (modules_of_string pred_source)))

let pred_document rng ~items =
  let b = Buffer.create (items * 6) in
  let words = [| "let"; "in"; "fun"; "lets"; "input"; "fun_1"; "x"; "_y2" |] in
  let depth = ref 0 in
  for _ = 1 to items do
    (match Rng.int rng 8 with
    | 0 when !depth < 6 ->
        Buffer.add_string b "( ";
        incr depth
    | 1 when !depth > 0 ->
        Buffer.add_string b ") ";
        decr depth
    | 2 -> Buffer.add_string b (string_of_int (Rng.int rng 10_000))
    | 3 -> Buffer.add_string b "-- note\n"
    | _ -> Buffer.add_string b (Rng.pick rng words));
    Buffer.add_char b ' '
  done;
  for _ = 1 to !depth do
    Buffer.add_string b ") "
  done;
  Buffer.contents b

(* (name, grammar, document) *)
let documents =
  lazy
    [
      ( "calc",
        Grammars.Calc.grammar (),
        Grammars.Corpus.arith (Rng.create 11) ~size:300 );
      ( "json",
        Grammars.Json.grammar (),
        Grammars.Corpus.json (Rng.create 12) ~size:60 );
      ( "minijava",
        Grammars.Minijava.grammar (),
        Grammars.Corpus.minijava (Rng.create 13) ~classes:2 );
      ( "minic",
        Grammars.Minic.grammar (),
        Grammars.Corpus.minic (Rng.create 14) ~functions:3 );
      ("pred", pred_grammar (), pred_document (Rng.create 15) ~items:300);
    ]

let tight = Limits.v ~max_memo_bytes:4_096 ()

(* One edit that keeps every document valid: a space doubled past the
   middle of the text. *)
let edit_point text =
  match String.index_from_opt text (String.length text / 2) ' ' with
  | Some i -> i
  | None -> Alcotest.failf "no space past the middle of the document"

let one_shot ~optimize cfg g text =
  let g = if optimize then Pipeline.optimize g else g in
  (Engine.run (Engine.prepare_exn ~config:cfg g) text).Engine.stats

let session ~optimize cfg g text =
  let g = if optimize then Pipeline.optimize g else g in
  let s = Session.create (Engine.prepare_exn ~config:cfg g) text in
  (match Session.reparse s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first reparse: %s" (Parse_error.message e));
  Session.apply_edit s ~start:(edit_point text) ~old_len:0 ~replacement:" ";
  (match Session.reparse s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "edited reparse: %s" (Parse_error.message e));
  Session.stats s

(* (name, how a document is run) *)
let runs =
  [
    ("naive", one_shot ~optimize:false Config.naive);
    ("packrat", one_shot ~optimize:false Config.packrat);
    ("chunked", one_shot ~optimize:false (Config.v ~memo:Config.Chunked ()));
    ("optimized", one_shot ~optimize:true Config.optimized);
    ( "packrat-tight",
      one_shot ~optimize:false (Config.with_limits tight Config.packrat) );
    ( "optimized-tight",
      one_shot ~optimize:true (Config.with_limits tight Config.optimized) );
    ("session-packrat", session ~optimize:false Config.packrat);
    ("session-optimized", session ~optimize:true Config.optimized);
  ]

let to_list (s : Stats.t) = List.map snd (Stats.fields s)

let literal l = "[ " ^ String.concat "; " (List.map string_of_int l) ^ " ]"

(* In [Stats.fields] order: invocations, hits, misses, stores, chunks,
   slots, backtracks, snapshots, fuel-used, memo-degraded, memo-reused,
   memo-relocated. *)
let expected : ((string * string) * int list) list =
  [
    (("calc", "naive"), [ 17711; 0; 0; 0; 0; 0; 4608; 0; 17711; 0; 0; 0 ]);
    (("calc", "packrat"), [ 2161; 305; 1856; 1856; 0; 0; 639; 0; 2161; 0; 0; 0 ]);
    (("calc", "chunked"), [ 2161; 305; 1856; 1856; 954; 8586; 639; 0; 2161; 0; 0; 0 ]);
    (("calc", "optimized"), [ 1121; 40; 450; 450; 273; 819; 225; 0; 1121; 0; 0; 0 ]);
    (("calc", "packrat-tight"), [ 17574; 18; 17556; 64; 0; 0; 4565; 0; 17574; 17492; 0; 0 ]);
    (("calc", "optimized-tight"), [ 4853; 2; 2173; 32; 21; 63; 897; 0; 4853; 2141; 0; 0 ]);
    (("calc", "session-packrat"), [ 49; 41; 8; 8; 0; 0; 3; 0; 49; 0; 1849; 886 ]);
    (("calc", "session-optimized"), [ 79; 36; 3; 3; 1; 3; 1; 0; 79; 0; 272; 132 ]);
    (("json", "naive"), [ 728; 0; 0; 0; 0; 0; 453; 0; 728; 0; 0; 0 ]);
    (("json", "packrat"), [ 728; 0; 728; 728; 0; 0; 453; 0; 728; 0; 0; 0 ]);
    (("json", "chunked"), [ 728; 0; 728; 728; 468; 5616; 453; 0; 728; 0; 0; 0 ]);
    (("json", "optimized"), [ 110; 0; 87; 87; 87; 174; 0; 0; 110; 0; 0; 0 ]);
    (("json", "packrat-tight"), [ 728; 0; 728; 64; 0; 0; 453; 0; 728; 664; 0; 0 ]);
    (("json", "optimized-tight"), [ 110; 0; 87; 28; 28; 56; 0; 0; 110; 59; 0; 0 ]);
    (("json", "session-packrat"), [ 9; 5; 4; 4; 0; 0; 0; 0; 9; 0; 725; 362 ]);
    (("json", "session-optimized"), [ 5; 2; 1; 1; 1; 2; 0; 0; 5; 0; 86; 45 ]);
    (("minijava", "naive"), [ 14434; 0; 0; 0; 0; 0; 22488; 0; 14434; 0; 0; 0 ]);
    (("minijava", "packrat"), [ 8171; 303; 5067; 4903; 0; 0; 10211; 0; 8171; 0; 0; 0 ]);
    (("minijava", "chunked"), [ 8171; 441; 7730; 7566; 1396; 75384; 10211; 0; 8171; 0; 0; 0 ]);
    (("minijava", "optimized"), [ 2437; 105; 1193; 1193; 203; 2436; 395; 0; 2437; 0; 0; 0 ]);
    (("minijava", "packrat-tight"), [ 14358; 10; 9187; 64; 0; 0; 22378; 0; 14358; 8618; 0; 0 ]);
    (("minijava", "optimized-tight"), [ 3558; 2; 1742; 25; 6; 72; 624; 0; 3558; 1717; 0; 0 ]);
    (("minijava", "session-packrat"), [ 96; 62; 25; 25; 0; 0; 39; 0; 96; 0; 4879; 2737 ]);
    (("minijava", "session-optimized"), [ 57; 21; 15; 15; 6; 96; 9; 0; 57; 0; 216; 119 ]);
    (("minic", "naive"), [ 18340; 0; 0; 0; 0; 0; 30432; 0; 18340; 0; 0; 0 ]);
    (("minic", "packrat"), [ 6450; 218; 4520; 4403; 0; 0; 9031; 0; 6450; 0; 0; 0 ]);
    (("minic", "chunked"), [ 6450; 218; 6232; 6115; 868; 59024; 9031; 0; 6450; 0; 0; 0 ]);
    (("minic", "optimized"), [ 1956; 66; 1141; 1141; 166; 2988; 298; 0; 1956; 0; 0; 0 ]);
    (("minic", "packrat-tight"), [ 18323; 2; 14486; 64; 0; 0; 30402; 0; 18323; 13999; 0; 0 ]);
    (("minic", "optimized-tight"), [ 2765; 0; 1531; 4; 4; 72; 441; 0; 2765; 1527; 0; 0 ]);
    (("minic", "session-packrat"), [ 4181; 2146; 2028; 2028; 0; 0; 2208; 0; 4181; 0; 4398; 2257 ]);
    (("minic", "session-optimized"), [ 1956; 66; 1141; 1141; 1; 18; 298; 0; 1956; 0; 165; 85 ]);
    (("pred", "naive"), [ 2345; 0; 0; 0; 0; 0; 2067; 0; 2345; 0; 0; 0 ]);
    (("pred", "packrat"), [ 2276; 213; 1661; 1505; 0; 0; 1566; 0; 2276; 0; 0; 0 ]);
    (("pred", "chunked"), [ 2276; 213; 2063; 1907; 868; 7812; 1566; 0; 2276; 0; 0; 0 ]);
    (("pred", "optimized"), [ 306; 0; 268; 268; 268; 268; 69; 0; 306; 0; 0; 0 ]);
    (("pred", "packrat-tight"), [ 2337; 10; 1925; 64; 0; 0; 2049; 0; 2337; 1441; 0; 0 ]);
    (("pred", "optimized-tight"), [ 306; 0; 268; 42; 42; 42; 69; 0; 306; 226; 0; 0 ]);
    (("pred", "session-packrat"), [ 89; 81; 8; 8; 0; 0; 11; 0; 89; 0; 1498; 785 ]);
    (("pred", "session-optimized"), [ 72; 65; 3; 3; 3; 3; 0; 0; 72; 0; 265; 139 ]);
  ]

let case (doc, g, text) (run, f) =
  Alcotest.test_case (doc ^ " " ^ run) `Quick (fun () ->
      let got = to_list (f g text) in
      match List.assoc_opt (doc, run) expected with
      | Some want when want = got -> ()
      | _ ->
          Alcotest.failf "counters changed:@.    ((%S, %S), %s);" doc run
            (literal got))

(* The work of a warm reparse. A session memoizes the transient
   productions that make up a MiniJava program's skeleton (class,
   method, field and local declarations), so a one-digit edit inside a
   method body re-runs the damaged method and replays every other
   declaration from the memo: 117 invocations where a cold parse of
   the 61 KB program runs 76,836. A session on the one-shot slot rule
   re-walks the skeleton and runs 2,782. *)
let session_tests =
  let minijava () =
    Engine.prepare_exn ~config:Config.optimized
      (Pipeline.optimize (Grammars.Minijava.grammar ()))
  in
  [
    Alcotest.test_case "session slot rule" `Quick (fun () ->
        List.iter
          (fun (name, g, extra) ->
            let eng = Engine.prepare_exn (Pipeline.optimize g) in
            Alcotest.(check int)
              (name ^ ": extra slots") extra
              (Engine.memo_slots (Engine.for_session eng) - Engine.memo_slots eng))
          [
            ("calc", Grammars.Calc.grammar (), 0);
            ("json", Grammars.Json.grammar (), 0);
            (* ClassDecl, Method, Field, LocalDecl *)
            ("minijava", Grammars.Minijava.grammar (), 4);
            (* FunctionDef and StructDef qualify but are stateful *)
            ("minic", Grammars.Minic.grammar (), 0);
          ]);
    Alcotest.test_case "one-digit edit in a MiniJava method body" `Quick
      (fun () ->
        let text = Grammars.Corpus.minijava (Rng.create 2024) ~classes:66 in
        (* the first numeric literal in the body of the first m0_1 *)
        let rec find i =
          if String.sub text i 5 = "m0_1(" then i else find (i + 1)
        in
        let body = String.index_from text (find 0) '{' in
        let rec digit i =
          match (text.[i - 1], text.[i]) with
          | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.'), _ -> digit (i + 1)
          | _, '0' .. '9' -> i
          | _ -> digit (i + 1)
        in
        let site = digit body in
        let eng = minijava () in
        let s = Session.create eng text in
        (match Session.reparse s with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "first reparse: %s" (Parse_error.message e));
        let replacement = if text.[site] = '7' then "3" else "7" in
        Session.apply_edit s ~start:site ~old_len:1 ~replacement;
        (match Session.reparse s with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "edited reparse: %s" (Parse_error.message e));
        let cold = (Engine.run eng (Session.text s)).Engine.stats in
        let got = to_list (Session.stats s) in
        let want = [ 117; 85; 16; 16; 7; 112; 6; 0; 117; 0; 6897; 0 ] in
        if got <> want then
          Alcotest.failf "warm reparse counters changed (cold parse: %d invocations):@.    %s"
            cold.Stats.invocations (literal got));
  ]

let () =
  Alcotest.run "counters"
    (List.map
       (fun ((name, _, _) as d) -> (name, List.map (case d) runs))
       (Lazy.force documents)
    @ [ ("session", session_tests) ])
