(* Tests for the concrete grammar collection: calculator, JSON, MiniC
   and its extensions, the hand-written comparators and the corpus
   generators. *)

open Rats

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f
let value_eq = Alcotest.testable (fun ppf v -> Value.pp ppf v) Value.equal

let engine g = Engine.prepare_exn ~config:Config.optimized g

(* --- calculator -------------------------------------------------------------- *)

let calc_eng = lazy (engine (Grammars.Calc.grammar ()))

let eval_ok input =
  match Engine.parse (Lazy.force calc_eng) input with
  | Ok v -> Grammars.Calc.eval v
  | Error e -> Alcotest.failf "%S: %s" input (Parse_error.message e)

let calc_tests =
  [
    test "grammar composes with expected productions" (fun () ->
        let g = Grammars.Calc.grammar () in
        List.iter
          (fun n -> check Alcotest.bool n true (Grammar.mem g n))
          [ "Calculation"; "Sum"; "Term"; "Factor"; "Atom"; "Number" ]);
    test "precedence: product binds tighter" (fun () ->
        check (Alcotest.float 1e-9) "1+2*3" 7.0 (eval_ok "1+2*3"));
    test "left associativity of minus and divide" (fun () ->
        check (Alcotest.float 1e-9) "8-3-2" 3.0 (eval_ok "8-3-2");
        check (Alcotest.float 1e-9) "8/4/2" 1.0 (eval_ok "8/4/2"));
    test "exponent is right associative and binds tightest" (fun () ->
        check (Alcotest.float 1e-9) "2**3**2" 512.0 (eval_ok "2**3**2");
        check (Alcotest.float 1e-9) "2*3**2" 18.0 (eval_ok "2*3**2"));
    test "parentheses override" (fun () ->
        check (Alcotest.float 1e-9) "(1+2)*3" 9.0 (eval_ok "(1+2)*3"));
    test "decimals" (fun () ->
        check (Alcotest.float 1e-9) "1.5*4" 6.0 (eval_ok "1.5*4"));
    test "spacing everywhere" (fun () ->
        check (Alcotest.float 1e-9) "spaced" 7.0 (eval_ok "  1 +  2\t* 3\n"));
    test "rejects garbage" (fun () ->
        List.iter
          (fun input ->
            check Alcotest.bool input false
              (Engine.accepts (Lazy.force calc_eng) input))
          [ "1+"; "**2"; "()"; "1..2"; "a+b"; "" ]);
    test "core grammar lacks the extension" (fun () ->
        let core = engine (Grammars.Calc.core_grammar ()) in
        check Alcotest.bool "base" true (Engine.accepts core ~start:"Sum" "1+2");
        check Alcotest.bool "no pow" false
          (Engine.accepts core ~start:"Sum" "2**3"));
    test "hand-written parser builds identical trees" (fun () ->
        List.iter
          (fun input ->
            match
              ( Engine.parse (Lazy.force calc_eng) input,
                Grammars.Calc.parse_hand input )
            with
            | Ok a, Ok b -> check value_eq input a b
            | Error _, Error _ -> ()
            | Ok _, Error e -> Alcotest.failf "%S: hand rejects (%s)" input e
            | Error _, Ok _ -> Alcotest.failf "%S: hand accepts" input)
          [
            "1+2*3"; "2**3**2"; "(1+2)*3"; "8/4/2"; " 7 "; "1+"; "(";
            "3.14*2"; "2**"; "10-4+1";
          ]);
    slow "hand-written parser agrees on 300 random expressions" (fun () ->
        let rng = Rng.create 99 in
        for _ = 1 to 300 do
          let input = Grammars.Corpus.arith rng ~size:Stdlib.(1 + Rng.int rng 25) in
          match
            ( Engine.parse (Lazy.force calc_eng) input,
              Grammars.Calc.parse_hand input )
          with
          | Ok a, Ok b ->
              if not (Value.equal a b) then
                Alcotest.failf "%S: trees differ" input
          | Error _, Error _ -> ()
          | _ -> Alcotest.failf "%S: acceptance differs" input
        done);
  ]

(* --- JSON ---------------------------------------------------------------------- *)

let json_eng = lazy (engine (Grammars.Json.grammar ()))

let json_tests =
  [
    test "scalars" (fun () ->
        List.iter
          (fun (input, name) ->
            match Engine.parse (Lazy.force json_eng) input with
            | Ok (Value.Node n) -> check Alcotest.string input name n.name
            | Ok v -> Alcotest.failf "%S: %s" input (Value.to_string v)
            | Error e -> Alcotest.failf "%S: %s" input (Parse_error.message e))
          [
            ("null", "Null"); ("true", "True"); ("false", "False");
            ("42", "Num"); ("-1.5e-3", "Num"); ({|"hi"|}, "Str");
          ]);
    test "structures" (fun () ->
        List.iter
          (fun input ->
            check Alcotest.bool input true
              (Engine.accepts (Lazy.force json_eng) input))
          [
            "{}"; "[]"; {|{"a":1}|}; {|[1, [2, [3]]]|};
            {|{"a": {"b": {"c": null}}}|}; {| [ true , false ] |};
          ]);
    test "rejections" (fun () ->
        List.iter
          (fun input ->
            check Alcotest.bool input false
              (Engine.accepts (Lazy.force json_eng) input))
          [
            "{"; "[1,]"; {|{"a" 1}|}; "01"; "+1"; {|"unterminated|};
            "tru"; ""; "[1 2]";
          ]);
    test "string contents kept raw" (fun () ->
        match Engine.parse (Lazy.force json_eng) {|"a\nb"|} with
        | Ok (Value.Node { children = [ (_, Value.Str s) ]; _ }) ->
            check Alcotest.string "raw" {|a\nb|} s
        | _ -> Alcotest.fail "unexpected shape");
    test "hand-written parser builds identical trees" (fun () ->
        List.iter
          (fun input ->
            match
              (Engine.parse (Lazy.force json_eng) input, Grammars.Json.parse_hand input)
            with
            | Ok a, Ok b -> check value_eq input a b
            | Error _, Error _ -> ()
            | Ok _, Error e -> Alcotest.failf "%S: hand rejects (%s)" input e
            | Error _, Ok _ -> Alcotest.failf "%S: hand accepts" input)
          [
            "{}"; "[]"; "null"; {|{"k": [1, 2.5, "s", true]}|}; "[[[]]]";
            "[1,]"; "{"; {|{"a":1, "b":2}|}; "-0.5"; "1e9";
          ]);
    slow "hand-written parser agrees on 200 random documents" (fun () ->
        let rng = Rng.create 1001 in
        for _ = 1 to 200 do
          let input = Grammars.Corpus.json rng ~size:Stdlib.(1 + Rng.int rng 40) in
          match
            (Engine.parse (Lazy.force json_eng) input, Grammars.Json.parse_hand input)
          with
          | Ok a, Ok b ->
              if not (Value.equal a b) then Alcotest.failf "%S: trees differ" input
          | Error _, Error _ -> ()
          | _ -> Alcotest.failf "%S: acceptance differs" input
        done);
  ]

(* --- MiniC ---------------------------------------------------------------------- *)

let minic_eng = lazy (engine (Grammars.Minic.grammar ()))
let minic_ext_eng = lazy (engine (Grammars.Minic.extended_grammar ()))

let accepts_minic input = Engine.accepts (Lazy.force minic_eng) input
let accepts_ext input = Engine.accepts (Lazy.force minic_ext_eng) input

let minic_tests =
  [
    test "composition statistics look like the paper's table" (fun () ->
        let _, stats = Grammars.Minic.load () in
        check Alcotest.int "eight instances" 8
          (List.length stats.Resolve.instances);
        check Alcotest.bool "dozens of productions" true
          (stats.Resolve.productions > 50));
    test "smallest program" (fun () ->
        check Alcotest.bool "void main" true
          (accepts_minic "void main() { return; }"));
    test "declarations, expressions, control flow" (fun () ->
        check Alcotest.bool "program" true
          (accepts_minic
             "int fact(int n) {\n\
             \  int acc = 1;\n\
             \  while (n > 1) { acc = acc * n; n = n - 1; }\n\
             \  return acc;\n\
              }\n"));
    test "comments and spacing" (fun () ->
        check Alcotest.bool "comments" true
          (accepts_minic "// c1\nint x = 1; /* c2\n c2 */ int y = 2;"));
    test "typedef gates the declaration syntax" (fun () ->
        (* Without the typedef, `myint x;` cannot be a declaration. *)
        check Alcotest.bool "without" false (accepts_minic "void f() { myint x; }");
        check Alcotest.bool "with" true
          (accepts_minic "typedef int myint; void f() { myint x; }"));
    test "typedef'd pointers parse as declarations" (fun () ->
        check Alcotest.bool "ptr decl" true
          (accepts_minic "typedef int t; void f() { t * x; }");
        (* Without the typedef the same tokens are a multiplication. *)
        check Alcotest.bool "expr stmt" true
          (accepts_minic "void f(int t, int x) { t * x; }"));
    test "typedef'd name parses as a type node" (fun () ->
        match
          Engine.parse (Lazy.force minic_eng)
            "typedef int myint; myint g = 4;"
        with
        | Ok v ->
            let rec find_node name (v : Value.t) =
              match v with
              | Value.Node n ->
                  String.equal n.name name
                  || List.exists (fun (_, c) -> find_node name c) n.children
              | Value.List vs -> List.exists (find_node name) vs
              | _ -> false
            in
            check Alcotest.bool "TypedefName node" true (find_node "TypedefName" v)
        | Error e -> Alcotest.failf "parse: %s" (Parse_error.message e));
    test "structs" (fun () ->
        check Alcotest.bool "struct" true
          (accepts_minic
             "struct point { int x; int y; };\n\
              int dist(struct point p) { return p.x * p.x + p.y * p.y; }"));
    test "operator precedence cascade parses" (fun () ->
        check Alcotest.bool "expr" true
          (accepts_minic
             "int f(int a, int b) { return a << 2 | b & 3 ^ ~a % 5; }"));
    test "sizeof both forms" (fun () ->
        check Alcotest.bool "sizeof expr" true
          (accepts_minic "int f(int x) { return sizeof x + sizeof(int); }");
        check Alcotest.bool "sizeof typedef" true
          (accepts_minic "typedef int t; int f() { return sizeof(t*); }"));
    test "casts are typedef-gated like declarations" (fun () ->
        (* (t)x is a cast only when t names a type; otherwise it is a
           parenthesized expression — the second context-sensitivity the
           typedef table drives. *)
        let cast_node src =
          match Engine.parse (Lazy.force minic_eng) src with
          | Ok v ->
              let rec has (v : Value.t) =
                match v with
                | Value.Node n ->
                    String.equal n.name "Cast"
                    || List.exists (fun (_, c) -> has c) n.children
                | Value.List vs -> List.exists has vs
                | _ -> false
              in
              has v
          | Error e -> Alcotest.failf "%S: %s" src (Parse_error.message e)
        in
        check Alcotest.bool "builtin cast" true
          (cast_node "int f(int x) { return (int)x; }");
        check Alcotest.bool "typedef cast" true
          (cast_node "typedef int t; int f(int x) { return (t)x; }");
        check Alcotest.bool "no typedef, no cast" false
          (cast_node "int f(int t, int x) { return (t)+x; }"));
    test "switch statements" (fun () ->
        check Alcotest.bool "switch" true
          (accepts_minic
             "int f(int x) { switch (x) { case 1: return 1; case 2: x++; \
              break; default: return 0; } return x; }");
        check Alcotest.bool "empty switch" true
          (accepts_minic "void f(int x) { switch (x) { } }");
        check Alcotest.bool "stray case rejected" false
          (accepts_minic "void f() { case 1: ; }"));
    test "goto and labels" (fun () ->
        check Alcotest.bool "goto" true
          (accepts_minic "void f() { start: g_counter++; goto start; }");
        check Alcotest.bool "label needs statement" false
          (accepts_minic "void f() { orphan: }"));
    test "rejections" (fun () ->
        List.iter
          (fun input ->
            check Alcotest.bool input false (accepts_minic input))
          [
            "int f() { return }"; "int 3x;"; "void f() { if x { } }";
            "int f( { }"; "struct { int x; };";
          ]);
    test "keywords cannot be identifiers" (fun () ->
        check Alcotest.bool "while var" false (accepts_minic "int while = 1;");
        check Alcotest.bool "prefix ok" true (accepts_minic "int whilex = 1;"));
  ]

let extension_tests =
  [
    test "base grammar rejects extension syntax" (fun () ->
        (* `a ** 2` is NOT rejected by base C: it parses as multiplication
           by a dereference - the extension changes the tree, which the
           next test checks. *)
        check Alcotest.bool "until" false
          (accepts_minic "void f(int a) { until (a > 3) a++; }");
        check Alcotest.bool "query" false
          (accepts_minic "int f() { return query { select a from t }; }"));
    test "pow extension changes the tree, not just the language" (fun () ->
        let src = "int f(int a) { return a ** 2; }" in
        let has_node name v =
          let rec go (v : Value.t) =
            match v with
            | Value.Node n ->
                String.equal n.name name
                || List.exists (fun (_, c) -> go c) n.children
            | Value.List vs -> List.exists go vs
            | _ -> false
          in
          go v
        in
        (match Engine.parse (Lazy.force minic_eng) src with
        | Ok v -> check Alcotest.bool "base: no Power node" false (has_node "Power" v)
        | Error e -> Alcotest.failf "base: %s" (Parse_error.message e));
        match Engine.parse (Lazy.force minic_ext_eng) src with
        | Ok v -> check Alcotest.bool "ext: Power node" true (has_node "Power" v)
        | Error e -> Alcotest.failf "ext: %s" (Parse_error.message e));
    test "extended grammar accepts ** with right associativity" (fun () ->
        check Alcotest.bool "pow" true
          (accepts_ext "int f(int a) { return a ** 2 ** 3 * 4; }"));
    test "extended grammar accepts until statements" (fun () ->
        check Alcotest.bool "until" true
          (accepts_ext "void f(int a) { until (a > 3) a++; }"));
    test "extended grammar accepts query expressions" (fun () ->
        check Alcotest.bool "query" true
          (accepts_ext
             "int f(int lim) { return query { select a, b from t where a < \
              lim ** 2 }; }"));
    test "extensions compose with typedefs" (fun () ->
        check Alcotest.bool "both" true
          (accepts_ext
             "typedef int t; void f() { t x = 2 ** 3; until (x) x = x - 1; }"));
    test "extended grammar still parses plain programs" (fun () ->
        check Alcotest.bool "plain" true
          (accepts_ext "int main() { return 0; }"));
    slow "hand-written parser agrees with the grammar on the corpus" (fun () ->
        let eng = Lazy.force minic_eng in
        for seed = 1 to 25 do
          let src = Grammars.Corpus.minic (Rng.create seed) ~functions:3 in
          let a = Engine.accepts eng src in
          let b = Result.is_ok (Grammars.Minic.parse_hand src) in
          if a <> b then
            Alcotest.failf "seed %d: engine=%b hand=%b\n%s" seed a b src
        done);
    slow "extended corpus parses" (fun () ->
        let eng = Lazy.force minic_ext_eng in
        for seed = 30 to 40 do
          let src = Grammars.Corpus.minic_extended (Rng.create seed) ~functions:3 in
          if not (Engine.accepts eng src) then
            Alcotest.failf "seed %d rejected:\n%s" seed src
        done);
  ]

(* --- MiniJava ------------------------------------------------------------------------ *)

let java_eng = lazy (engine (Grammars.Minijava.grammar ()))
let accepts_java input = Engine.accepts (Lazy.force java_eng) input

let minijava_tests =
  [
    test "reuses the MiniC spacing and operator modules" (fun () ->
        let _, stats = Grammars.Minijava.load () in
        let names =
          List.map
            (fun (s : Resolve.instance_stat) -> s.module_name)
            stats.Resolve.instances
        in
        check Alcotest.bool "c.Space" true (List.mem "c.Space" names);
        check Alcotest.bool "c.Op" true (List.mem "c.Op" names));
    test "entirely stateless (unlike MiniC)" (fun () ->
        let g = Grammars.Minijava.grammar () in
        let a = Analysis.analyze g in
        check Alcotest.bool "no stateful prods" true
          (List.for_all
             (fun (p : Production.t) -> not (Analysis.stateful a p.name))
             (Grammar.productions g)));
    test "smallest class" (fun () ->
        check Alcotest.bool "empty class" true (accepts_java "class A { }"));
    test "fields, methods, statements" (fun () ->
        check Alcotest.bool "program" true
          (accepts_java
             "class Counter extends Base {\n\
             \  int n = 0;\n\
             \  static int total;\n\
             \  int bump(int by, double w) {\n\
             \    for (int i = 0; i < by; i++) this.n = this.n + 1;\n\
             \    if (w > 0.5) return n; else return 0;\n\
             \  }\n\
              }"));
    test "object expressions" (fun () ->
        check Alcotest.bool "new and calls" true
          (accepts_java
             "class A { int f() { return new Point(1).size(2) + new \
              int[10][3]; } }"));
    test "rejections" (fun () ->
        List.iter
          (fun input -> check Alcotest.bool input false (accepts_java input))
          [
            "class { }"; "class A { int; }"; "class A extends { }";
            "int x = 1;"; "class A { int f() { return } }";
          ]);
    test "java keywords are not identifiers, C-only keywords are" (fun () ->
        check Alcotest.bool "class kw" false
          (accepts_java "class A { int class; }");
        (* 'typedef' is not a Java keyword, so it is a fine field name. *)
        check Alcotest.bool "typedef ok" true
          (accepts_java "class A { int typedef; }"));
    slow "hand-written parser agrees with the grammar on the corpus" (fun () ->
        let eng = Lazy.force java_eng in
        for seed = 50 to 75 do
          let src = Grammars.Corpus.minijava (Rng.create seed) ~classes:3 in
          let a = Engine.accepts eng src in
          let b = Result.is_ok (Grammars.Minijava.parse_hand src) in
          if a <> b then
            Alcotest.failf "seed %d: engine=%b hand=%b\n%s" seed a b src
        done);
    test "hand-written parser on hand-picked programs" (fun () ->
        List.iter
          (fun src ->
            check Alcotest.bool src
              (Engine.accepts (Lazy.force java_eng) src)
              (Result.is_ok (Grammars.Minijava.parse_hand src)))
          [
            "class A { }"; "class A extends B { int x = 1; }";
            "class A { int f(int a, double b) { return a; } }";
            "class A { int f() { return new Point(1).size(2); } }";
            "class A { void f() { for (int i = 0; i < 3; i++) x++; } }";
            "class A { int f() { return (1 + 2) * 3; } }";
            "class A { int f() { x = y = 1; return x; } }";
            "class A { }" ^ " class B { }";
            "class A { int f() { return } }"; "class A { int; }"; "class";
          ]);
    slow "corpus parses under every configuration" (fun () ->
        let g = Grammars.Minijava.grammar () in
        let src = Grammars.Corpus.minijava (Rng.create 8) ~classes:5 in
        List.iter
          (fun cfg ->
            let eng = Engine.prepare_exn ~config:cfg g in
            check Alcotest.bool "accepts" true (Engine.accepts eng src))
          [ Config.naive; Config.packrat; Config.optimized ]);
    slow "optimizer preserves values on the corpus" (fun () ->
        let g = Grammars.Minijava.grammar () in
        let src = Grammars.Corpus.minijava (Rng.create 21) ~classes:4 in
        let e1 = Engine.prepare_exn ~config:Config.naive g in
        let e2 =
          Engine.prepare_exn ~config:Config.optimized (Pipeline.optimize g)
        in
        match (Engine.parse e1 src, Engine.parse e2 src) with
        | Ok a, Ok b -> check Alcotest.bool "equal" true (Value.equal a b)
        | _ -> Alcotest.fail "parse failed");
  ]

(* --- realistic, human-written sources --------------------------------------------------- *)

let read_data path = In_channel.with_open_bin path In_channel.input_all

let realistic_tests =
  [
    test "a human-written C program parses (and the hand parser agrees)"
      (fun () ->
        let src = read_data "data/demo.c" in
        (match Engine.parse (Lazy.force minic_eng) src with
        | Ok v ->
            check Alcotest.bool "substantial tree" true
              (Value.count_nodes v > 200)
        | Error e ->
            Alcotest.failf "%s"
              (Parse_error.to_string ~source:(Source.of_string ~name:"demo.c" src) e));
        check Alcotest.bool "hand agrees" true
          (Result.is_ok (Grammars.Minic.parse_hand src)));
    test "a human-written Java program parses (and the hand parser agrees)"
      (fun () ->
        let src = read_data "data/demo.java" in
        (match Engine.parse (Lazy.force java_eng) src with
        | Ok v ->
            check Alcotest.bool "substantial tree" true
              (Value.count_nodes v > 150)
        | Error e ->
            Alcotest.failf "%s"
              (Parse_error.to_string
                 ~source:(Source.of_string ~name:"demo.java" src)
                 e));
        check Alcotest.bool "hand agrees" true
          (Result.is_ok (Grammars.Minijava.parse_hand src)));
    test "the optimized and naive configurations agree on demo.c values"
      (fun () ->
        let src = read_data "data/demo.c" in
        let e1 = Lazy.force minic_eng in
        let e2 =
          Engine.prepare_exn ~config:Config.naive (Grammars.Minic.grammar ())
        in
        match (Engine.parse e1 src, Engine.parse e2 src) with
        | Ok a, Ok b -> check Alcotest.bool "equal trees" true (Value.equal a b)
        | _ -> Alcotest.fail "parse failed");
  ]

(* --- the self-hosted meta grammar ----------------------------------------------------- *)

let meta_eng = lazy (engine (Grammars.Metagrammar.grammar ()))

let selfhost_tests =
  [
    test "composes and reuses c.Space" (fun () ->
        let g = Grammars.Metagrammar.grammar () in
        check Alcotest.bool "has File" true (Grammar.mem g "File");
        check Alcotest.bool "spacing shared" true (Grammar.mem g "Spacing"));
    test "accepts every shipped grammar text" (fun () ->
        let texts =
          Grammars.Calc.texts @ Grammars.Json.texts @ Grammars.Minic.texts
          @ Grammars.Minic.extension_texts @ Grammars.Minijava.texts
          @ Grammars.Path.texts @ Grammars.Metagrammar.texts
        in
        List.iteri
          (fun i text ->
            match Engine.parse (Lazy.force meta_eng) text with
            | Ok _ -> ()
            | Error e ->
                Alcotest.failf "text %d rejected: %s" i (Parse_error.message e))
          texts);
    test "rejects malformed module sources" (fun () ->
        List.iter
          (fun bad ->
            check Alcotest.bool bad false
              (Engine.accepts (Lazy.force meta_eng) bad))
          [
            ""; "module"; "module M"; "module M; X 'a';";
            "notmodule M; X = 'a';"; "module M; X = 'a'";
            "module M; import = 'x';"; "module M; void X += 'x';";
            "module M; X = [a;"; "module M; modify; X = 'a';";
          ]);
    test "tree shape carries modules, deps and items" (fun () ->
        match
          Engine.parse (Lazy.force meta_eng)
            "module A(P); import B as C; X = 'x'; Y += <L> 'y';"
        with
        | Ok (Value.Node { name = "File"; children = [ (_, Value.List [ m ]) ]; _ })
          ->
            check (Alcotest.option Alcotest.string) "module node"
              (Some "ModuleDecl") (Value.name m)
        | Ok v -> Alcotest.failf "unexpected %s" (Value.to_string v)
        | Error e -> Alcotest.failf "parse: %s" (Parse_error.message e));
    slow "acceptance agrees with the hand-written parser on mangled texts"
      (fun () ->
        (* One known, documented divergence: the hand lexer rejects
           inverted class ranges ([z-a]) at lexing time, which a PEG
           cannot express; such samples are skipped. *)
        let eng = Lazy.force meta_eng in
        let base = List.hd Grammars.Calc.texts ^ List.hd Grammars.Json.texts in
        let rng = Rng.create 7 in
        let checked = ref 0 in
        while !checked < 400 do
          let pos = Rng.int rng (String.length base) in
          let c = Char.chr (Rng.int rng 127) in
          let mangled =
            String.mapi (fun i ch -> if i = pos then c else ch) base
          in
          let hand = Meta_parser.parse_modules_string mangled in
          let skip =
            match hand with
            | Error d ->
                let m = d.Diagnostic.message in
                let sub = "inverted range" in
                let n = String.length sub in
                let rec go i =
                  i + n <= String.length m
                  && (String.sub m i n = sub || go (i + 1))
                in
                go 0
            | Ok _ -> false
          in
          if not skip then (
            incr checked;
            let h = Result.is_ok hand in
            let p = Engine.accepts eng mangled in
            if h <> p then
              Alcotest.failf "disagreement (hand=%b peg=%b) at %d/%C" h p pos c)
        done);
  ]

(* --- corpus -------------------------------------------------------------------------- *)

let corpus_tests =
  [
    test "generators are deterministic" (fun () ->
        let a = Grammars.Corpus.minic (Rng.create 42) ~functions:3 in
        let b = Grammars.Corpus.minic (Rng.create 42) ~functions:3 in
        check Alcotest.string "same" a b;
        let c = Grammars.Corpus.minic (Rng.create 43) ~functions:3 in
        check Alcotest.bool "different seed differs" true (a <> c));
    test "sizes scale" (fun () ->
        let small = Grammars.Corpus.json (Rng.create 1) ~size:5 in
        let large = Grammars.Corpus.json (Rng.create 1) ~size:500 in
        check Alcotest.bool "larger" true
          (String.length large > String.length small));
    test "pathological input shape" (fun () ->
        check Alcotest.string "depth 2" "((1))"
          (Grammars.Corpus.pathological ~depth:2));
    test "all corpus kinds parse with their grammars" (fun () ->
        let rng = Rng.create 7 in
        check Alcotest.bool "arith" true
          (Engine.accepts (Lazy.force calc_eng) (Grammars.Corpus.arith rng ~size:20));
        check Alcotest.bool "json" true
          (Engine.accepts (Lazy.force json_eng) (Grammars.Corpus.json rng ~size:30));
        check Alcotest.bool "minic" true
          (accepts_minic (Grammars.Corpus.minic rng ~functions:2));
        check Alcotest.bool "minic-ext" true
          (accepts_ext (Grammars.Corpus.minic_extended rng ~functions:2)));
  ]

let () =
  Alcotest.run "grammars"
    [
      ("calc", calc_tests);
      ("json", json_tests);
      ("minic", minic_tests);
      ("minijava", minijava_tests);
      ("extensions", extension_tests);
      ("self-hosted", selfhost_tests);
      ("realistic", realistic_tests);
      ("corpus", corpus_tests);
    ]
