(* Tests for the optimizer: each pass preserves the language (and, for
   the value-safe passes, the semantic values), and does what its name
   says to the grammar structure. *)

open Rats

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let value_eq = Alcotest.testable (fun ppf v -> Value.pp ppf v) Value.equal

(* Reference engine: naive interpretation of the untouched grammar. *)
let reference g = Engine.prepare_exn ~config:Config.naive g

let same_values ?(inputs = []) g g' =
  let e1 = reference g in
  let e2 = Engine.prepare_exn ~config:Config.optimized g' in
  List.iter
    (fun input ->
      match (Engine.parse e1 input, Engine.parse e2 input) with
      | Ok a, Ok b ->
          check value_eq (Printf.sprintf "values for %S" input) a b
      | Error _, Error _ -> ()
      | Ok _, Error e ->
          Alcotest.failf "%S: optimized rejects (%s)" input (Parse_error.message e)
      | Error _, Ok _ -> Alcotest.failf "%S: optimized accepts" input)
    inputs

let same_acceptance ?(inputs = []) g g' =
  let e1 = reference g in
  let e2 = Engine.prepare_exn ~config:Config.optimized g' in
  List.iter
    (fun input ->
      check Alcotest.bool
        (Printf.sprintf "acceptance for %S" input)
        (Engine.accepts e1 input) (Engine.accepts e2 input))
    inputs

(* --- pruning ---------------------------------------------------------------- *)

let prune_tests =
  let open Builder in
  [
    test "unreachable productions dropped" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [ prod "S" (e "A"); prod "A" (c 'a'); prod "Dead" (c 'd') ]
        in
        let g' = Passes.prune g in
        check Alcotest.int "two left" 2 (Grammar.length g');
        check Alcotest.bool "dead gone" false (Grammar.mem g' "Dead"));
    test "public productions survive pruning" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [ prod "S" (c 's'); prod ~public:true "Api" (c 'a') ]
        in
        check Alcotest.bool "api kept" true (Grammar.mem (Passes.prune g) "Api"));
  ]

(* --- transient marking --------------------------------------------------------- *)

let transient_tests =
  let open Builder in
  [
    test "single-reference productions marked" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (e "Once" @: e "Twice" @: e "Twice");
              prod "Once" (c 'o');
              prod "Twice" (c 't');
            ]
        in
        let g' = Passes.mark_transients g in
        check Alcotest.bool "once transient" true
          (Attr.is_transient (Grammar.find_exn g' "Once").Production.attrs);
        check Alcotest.bool "twice kept" false
          (Attr.is_transient (Grammar.find_exn g' "Twice").Production.attrs));
    test "explicit memoized wins" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [ prod "S" (e "A"); prod ~memo:Attr.Memo_always "A" (c 'a') ]
        in
        let g' = Passes.mark_transients g in
        check Alcotest.bool "kept" false
          (Attr.is_transient (Grammar.find_exn g' "A").Production.attrs));
  ]

(* --- terminal detection ----------------------------------------------------------- *)

let terminal_tests =
  let open Builder in
  [
    test "character-level productions detected transitively" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (e "Ident" @: e "Node");
              prod "Ident" (plus (e "Letter"));
              prod "Letter" (r 'a' 'z');
              prod ~kind:Attr.Generic "Node" (c '!');
            ]
        in
        let ts = Passes.terminal_set g in
        check Alcotest.bool "Ident" true (Analysis.StringSet.mem "Ident" ts);
        check Alcotest.bool "Letter" true (Analysis.StringSet.mem "Letter" ts);
        check Alcotest.bool "Node excluded" false
          (Analysis.StringSet.mem "Node" ts);
        check Alcotest.bool "S excluded" false (Analysis.StringSet.mem "S" ts));
    test "node constructor disqualifies" (fun () ->
        let g =
          Grammar.make_exn ~start:"S" [ prod "S" (node "N" (c 'a')) ]
        in
        check Alcotest.bool "excluded" false
          (Analysis.StringSet.mem "S" (Passes.terminal_set g)));
    test "state operators disqualify" (fun () ->
        let g =
          Grammar.make_exn ~start:"S" [ prod "S" (record "T" (c 'a')) ]
        in
        check Alcotest.bool "excluded" false
          (Analysis.StringSet.mem "S" (Passes.terminal_set g)));
    test "minic lexical level is terminal" (fun () ->
        let g = Grammars.Minic.grammar () in
        let ts = Passes.terminal_set g in
        check Alcotest.bool "Word" true (Analysis.StringSet.mem "Word" ts);
        check Alcotest.bool "Spacing" true (Analysis.StringSet.mem "Spacing" ts);
        check Alcotest.bool "Statement excluded" false
          (Analysis.StringSet.mem "Statement" ts));
  ]

(* --- inlining ------------------------------------------------------------------------ *)

let inline_tests =
  let open Builder in
  [
    test "small private productions inlined away" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [ prod "S" (e "Tiny" @: e "Tiny"); prod "Tiny" (c 't') ]
        in
        let g' = Passes.inline_pass g in
        check Alcotest.int "one prod" 1 (Grammar.length g');
        same_values ~inputs:[ "tt"; "t"; "" ] g g');
    test "recursive productions not inlined" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [ prod "S" (e "R"); prod "R" (c '(' @: opt (e "R") @: c ')') ]
        in
        let g' = Passes.inline_pass g in
        check Alcotest.bool "R kept" true (Grammar.mem g' "R"));
    test "inline_never respected, inline_always forced" (fun () ->
        let big = Expr.seq (List.init 20 (fun _ -> Expr.chr 'x')) in
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (e "Never" @: e "Always");
              prod ~inline:Attr.Inline_never "Never" (c 'n');
              prod ~inline:Attr.Inline_always "Always" big;
            ]
        in
        let g' = Passes.inline_pass g in
        check Alcotest.bool "never kept" true (Grammar.mem g' "Never");
        check Alcotest.bool "always gone" false (Grammar.mem g' "Always"));
    test "kinds preserved through inlining" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (e "G" @: e "T" @: e "V");
              prod ~kind:Attr.Generic "G" (r 'a' 'z');
              prod ~kind:Attr.Text "T" (plus (r '0' '9'));
              prod ~kind:Attr.Void "V" (r 'a' 'z');
            ]
        in
        let g' = Passes.inline_pass g in
        check Alcotest.int "all inlined" 1 (Grammar.length g');
        same_values ~inputs:[ "x42z"; "x4"; "" ] g g');
    test "top-level bind blocks inlining" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [ prod "S" (e "B" @: c '!'); prod "B" ("x" |: c 'b') ]
        in
        let g' = Passes.inline_pass g in
        check Alcotest.bool "kept" true (Grammar.mem g' "B");
        same_values ~inputs:[ "b!" ] g g');
    test "every site of an expansion holds the same node" (fun () ->
        (* Tiny is inlined at two sites; Inner reaches both sites of
           Outer a round later, through Outer's shared expansion. *)
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S"
                (e "Tiny" @: c ',' @: e "Tiny" @: c ';' @: e "Outer" @: c ','
               @: e "Outer");
              prod ~kind:Attr.Void "Tiny" (c 'a' <|> c 'b');
              prod ~kind:Attr.Void "Outer" (c 'o' @: e "Inner");
              prod ~kind:Attr.Void "Inner" (c 'i' <|> c 'j');
            ]
        in
        let g' = Passes.inline_pass g in
        check Alcotest.int "one prod" 1 (Grammar.length g');
        (match (Grammar.find_exn g' "S").Production.expr.Expr.it with
        | Expr.Seq [ t1; _; t2; _; o1; _; o2 ] ->
            check Alcotest.bool "Tiny's sites" true (t1 == t2);
            check Alcotest.bool "Outer's sites" true (o1 == o2);
            check Alcotest.(list string) "Inner inlined" [] (Expr.refs o1)
        | _ -> Alcotest.fail "S is not the seven-element sequence");
        same_values ~inputs:[ "a,b;oi,oj"; "b,a;oj,ok" ] g g');
    test "calc grammar value-identical after inlining" (fun () ->
        let g = Grammars.Calc.grammar () in
        same_values
          ~inputs:[ "1+2*3"; "2**3**2"; "(1+2)*3"; "8/4/2" ]
          g (Passes.inline_pass g));
  ]

(* --- folding ------------------------------------------------------------------------- *)

let fold_tests =
  let open Builder in
  [
    test "structurally equal privates merged" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (e "A" @: e "B");
              prod ~inline:Attr.Inline_never "A" (plus (r '0' '9'));
              prod ~inline:Attr.Inline_never "B" (plus (r '0' '9'));
            ]
        in
        let g' = Passes.fold_duplicates g in
        check Alcotest.int "merged" 2 (Grammar.length g');
        same_values ~inputs:[ "12"; "1"; "" ] g g');
    test "different kinds not merged" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (e "A" @: e "B");
              prod ~kind:Attr.Text "A" (plus (r '0' '9'));
              prod "B" (plus (r '0' '9'));
            ]
        in
        check Alcotest.int "kept" 3 (Grammar.length (Passes.fold_duplicates g)));
    test "generic productions never merged" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (e "A" @: e "B");
              prod ~kind:Attr.Generic "A" (c 'x');
              prod ~kind:Attr.Generic "B" (c 'x');
            ]
        in
        check Alcotest.int "kept" 3 (Grammar.length (Passes.fold_duplicates g)));
    test "folding cascades to a fixed point" (fun () ->
        (* A1/A2 equal only after their references B1/B2 are merged. *)
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (e "A1" @: e "A2");
              prod ~inline:Attr.Inline_never "A1" (e "B1" @: c '!');
              prod ~inline:Attr.Inline_never "A2" (e "B2" @: c '!');
              prod ~inline:Attr.Inline_never "B1" (c 'b');
              prod ~inline:Attr.Inline_never "B2" (c 'b');
            ]
        in
        let g' = Passes.fold_duplicates g in
        check Alcotest.int "S+A+B" 3 (Grammar.length g');
        same_values ~inputs:[ "b!b!" ] g g');
  ]

(* --- prefix factoring ------------------------------------------------------------------ *)

let factor_tests =
  let open Builder in
  [
    test "adjacent alternatives factored" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [ prod "S" (s "ab" @: c 'x' <|> s "ab" @: c 'y' <|> c 'z') ]
        in
        let g' = Passes.factor_prefixes g in
        (* The factored grammar must contain a splice. *)
        let has_splice =
          Expr.fold
            (fun acc (x : Expr.t) ->
              acc || match x.it with Expr.Splice _ -> true | _ -> false)
            false (Grammar.find_exn g' "S").Production.expr
        in
        check Alcotest.bool "splice introduced" true has_splice;
        same_values ~inputs:[ "abx"; "aby"; "z"; "ab"; "abz" ] g g');
    test "values preserved with binds and nodes" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod ~kind:Attr.Generic "S"
                (("l" |: tok (s "ab")) @: ("r" |: any) @: c '!'
                <|> ("l" |: tok (s "ab")) @: c '?'
                <|> ("q" |: any));
            ]
        in
        let g' = Passes.factor_prefixes g in
        same_values ~inputs:[ "abc!"; "ab?"; "x"; "ab!"; "" ] g g');
    test "single-element tails keep their shape" (fun () ->
        (* The tail is a reference to a production whose own value is a
           tuple: splicing must not flatten it. *)
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (c 'k' @: e "Pair" <|> c 'k' @: c '!');
              prod ~inline:Attr.Inline_never "Pair" (any @: any);
            ]
        in
        same_values ~inputs:[ "kab"; "k!"; "k" ] g (Passes.factor_prefixes g));
    test "nested factoring" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S"
                (c 'a' @: c 'b' @: c '1'
                <|> c 'a' @: c 'b' @: c '2'
                <|> c 'a' @: c 'c');
            ]
        in
        same_values ~inputs:[ "ab1"; "ab2"; "ac"; "abc" ] g
          (Passes.factor_prefixes g));
    test "stateful heads are skipped" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S"
                (record "T" (c 'a') @: c 'x' <|> record "T" (c 'a') @: c 'y');
            ]
        in
        let g' = Passes.factor_prefixes g in
        let has_splice =
          Expr.fold
            (fun acc (x : Expr.t) ->
              acc || match x.it with Expr.Splice _ -> true | _ -> false)
            false (Grammar.find_exn g' "S").Production.expr
        in
        check Alcotest.bool "left alone" false has_splice);
    test "idempotent" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [ prod "S" (s "ab" @: c 'x' <|> s "ab" @: c 'y') ]
        in
        let once = Passes.factor_prefixes g in
        let twice = Passes.factor_prefixes once in
        check Alcotest.bool "stable" true
          (Expr.equal
             (Grammar.find_exn once "S").Production.expr
             (Grammar.find_exn twice "S").Production.expr));
  ]

(* --- repetition desugaring ---------------------------------------------------------------- *)

let desugar_tests =
  let open Builder in
  [
    test "helpers are introduced" (fun () ->
        let g = Grammar.make_exn ~start:"S" [ prod "S" (star (c 'a')) ] in
        let g' = Desugar.expand_repetitions g in
        check Alcotest.bool "helpers" true (Desugar.expanded_helpers g' <> []));
    test "acceptance preserved for star, plus, opt" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [ prod "S" (star (c 'a') @: plus (c 'b') @: opt (c 'c')) ]
        in
        same_acceptance
          ~inputs:[ "b"; "ab"; "aabbc"; "c"; ""; "aac" ]
          g (Desugar.expand_repetitions g));
    test "nested repetitions expand" (fun () ->
        let g =
          Grammar.make_exn ~start:"S" [ prod "S" (star (c 'x' @: plus (c 'y'))) ]
        in
        same_acceptance
          ~inputs:[ ""; "xy"; "xyy"; "xyxy"; "x" ]
          g (Desugar.expand_repetitions g));
    test "opt expansion is value-preserving" (fun () ->
        let g =
          Grammar.make_exn ~start:"S" [ prod "S" (opt (tok (c 'a')) @: c '!') ]
        in
        (* Only Star/Plus change value shapes; Opt must not. *)
        let g' = Desugar.expand_repetitions g in
        same_values ~inputs:[ "a!"; "!" ] g g');
    test "desugared grammar passes well-formedness" (fun () ->
        let g = Grammars.Calc.grammar () in
        let g' = Desugar.expand_repetitions g in
        check Alcotest.int "clean" 0
          (List.length (Analysis.check (Analysis.analyze g'))));
  ]

(* --- left-recursion elimination ---------------------------------------------------------- *)

let leftrec_tests =
  let open Builder in
  [
    test "direct left recursion becomes iteration" (fun () ->
        let g =
          Grammar.make_exn ~start:"E"
            [
              prod "E"
                (e "E" @: tok (c '-') @: e "N" <|> e "N");
              prod "N" (tok (plus (r '0' '9')));
            ]
        in
        (* The raw grammar is rejected... *)
        (match Engine.prepare g with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected rejection");
        (* ...and the transformed one parses left-associatively. *)
        let g' = Passes.eliminate_left_recursion g in
        let eng = Engine.prepare_exn g' in
        match Engine.parse eng "8-3-2" with
        | Ok v ->
            (* value = #seq(base, [tail; tail]) *)
            check Alcotest.int "two tails" 2
              (match Value.nth_child v 1 with
              | Some (Value.List ts) -> List.length ts
              | _ -> -1)
        | Error e -> Alcotest.failf "parse: %s" (Parse_error.message e));
    test "base and recursive alternatives in any order" (fun () ->
        let g =
          Grammar.make_exn ~start:"E"
            [ prod "E" (c 'n' <|> e "E" @: c '+' @: c 'n' <|> e "E" @: c '-' @: c 'n') ]
        in
        let eng = Engine.prepare_exn (Passes.eliminate_left_recursion g) in
        check Alcotest.bool "mixed" true (Engine.accepts eng "n+n-n"));
    test "vacuous self-alternative is dropped" (fun () ->
        let g =
          Grammar.make_exn ~start:"E" [ prod "E" (e "E" <|> c 'a') ]
        in
        let eng = Engine.prepare_exn (Passes.eliminate_left_recursion g) in
        check Alcotest.bool "a" true (Engine.accepts eng "a"));
    test "indirect left recursion is left for the checker" (fun () ->
        let g =
          Grammar.make_exn ~start:"A"
            [ prod "A" (e "B" <|> c 'a'); prod "B" (e "A" @: c 'b') ]
        in
        let g' = Passes.eliminate_left_recursion g in
        match Engine.prepare g' with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected rejection");
    test "non-recursive grammars are untouched" (fun () ->
        let g = Grammars.Calc.grammar () in
        let g' = Passes.eliminate_left_recursion g in
        List.iter2
          (fun (p : Production.t) (q : Production.t) ->
            check Alcotest.bool p.name true (Expr.equal p.expr q.expr))
          (Grammar.productions g) (Grammar.productions g'));
  ]

(* --- the analysis cache ---------------------------------------------------------------------- *)

(* The analyses a driver run of the pipeline makes, read off the
   context its passes are handed. *)
let driver_analyses ~gate g =
  let last = ref None in
  let spy =
    List.map
      (fun (p : Pass.t) -> { p with run = (fun ctx g -> last := Some ctx; p.run ctx g) })
      (Pipeline.passes ())
  in
  ignore (Driver.run ~gate spy g);
  Analysis_ctx.computations (Option.get !last)

let ctx_tests =
  let open Builder in
  let two_prods () =
    Grammar.make_exn ~start:"S"
      [ prod "S" (e "A" @: e "A"); prod "A" (r 'a' 'z') ]
  in
  [
    test "queries share one analysis run" (fun () ->
        let g = two_prods () in
        let ctx = Analysis_ctx.create () in
        ignore (Analysis_ctx.analysis ctx g);
        ignore (Analysis_ctx.reachable ctx g);
        ignore (Analysis_ctx.ref_count ctx g "A");
        ignore (Analysis_ctx.terminals ctx g);
        check Alcotest.int "one run" 1 (Analysis_ctx.computations ctx));
    test "the cache is keyed on the grammar asked about" (fun () ->
        let g = two_prods () in
        (* the same productions, built again: physically other bodies *)
        let g' = two_prods () in
        let ctx = Analysis_ctx.create () in
        ignore (Analysis_ctx.analysis ctx g);
        ignore (Analysis_ctx.analysis ctx g);
        check Alcotest.int "same grammar" 1 (Analysis_ctx.computations ctx);
        ignore (Analysis_ctx.analysis ctx g');
        check Alcotest.int "another grammar" 2 (Analysis_ctx.computations ctx);
        ignore (Analysis_ctx.analysis ctx g);
        check Alcotest.int "and back" 3 (Analysis_ctx.computations ctx));
    test "facts outlive a change of memo hints only" (fun () ->
        let g = two_prods () in
        let ctx = Analysis_ctx.create () in
        ignore (Analysis_ctx.analysis ctx g);
        let g' = Passes.mark_transients ~ctx g in
        check Alcotest.bool "S marked transient" true
          (Attr.is_transient (Grammar.find_exn g' "S").Production.attrs);
        ignore (Analysis_ctx.analysis ctx g');
        ignore (Analysis_ctx.terminals ctx g');
        ignore (Analysis_ctx.ref_count ctx g' "A");
        check Alcotest.int "across mark_transients" 1 (Analysis_ctx.computations ctx);
        (* a kind or a visibility is read by the analysis: a grammar
           that changes one is another grammar *)
        let with_attrs f = Grammar.update g' "A" (fun p -> Production.with_attrs p (f p.attrs)) in
        ignore (Analysis_ctx.analysis ctx (with_attrs (fun a -> { a with Attr.kind = Attr.Text })));
        check Alcotest.int "another kind" 2 (Analysis_ctx.computations ctx);
        ignore
          (Analysis_ctx.analysis ctx
             (with_attrs (fun a -> { a with Attr.visibility = Attr.Public })));
        check Alcotest.int "another visibility" 3 (Analysis_ctx.computations ctx));
    test "ref counts match Analysis.ref_count" (fun () ->
        let g = Grammars.Minic.grammar () in
        let ctx = Analysis_ctx.create () in
        let a = Analysis.analyze g in
        List.iter
          (fun (p : Production.t) ->
            check Alcotest.int p.name (Analysis.ref_count a p.name)
              (Analysis_ctx.ref_count ctx g p.name))
          (Grammar.productions g));
    test "another grammar's cached facts are not trusted" (fun () ->
        let calc = Grammars.Calc.grammar () in
        let g = two_prods () in
        let ctx = Analysis_ctx.create () in
        ignore (Analysis_ctx.ref_count ctx calc "A");
        let g' = Passes.mark_transients ~ctx g in
        check Alcotest.bool "A not transient" false
          (Attr.is_transient (Grammar.find_exn g' "A").Production.attrs));
    test "an ungated driver run: every analysis it makes" (fun () ->
        (* What rmlbench's compile layer times. Every analysis of the
           run goes through the driver's cache (the inliner's rounds and
           prunes, then the final prune), so these are all of them. *)
        List.iter
          (fun (name, g, analyses) ->
            check Alcotest.int name analyses (driver_analyses ~gate:false g))
          [
            ("minic", Grammars.Minic.grammar (), 11);
            ("minijava", Grammars.Minijava.grammar (), 11);
            ("json", Grammars.Json.grammar (), 5);
          ]);
    test "a gated driver run makes no more analyses" (fun () ->
        (* the gate's analysis of the input serves [transients], which
           changes memo hints only, and then [inline] *)
        List.iter
          (fun (name, g) ->
            check Alcotest.int name 11 (driver_analyses ~gate:true g))
          [ ("minic", Grammars.Minic.grammar ()); ("minijava", Grammars.Minijava.grammar ()) ]);
  ]

(* --- the driver ------------------------------------------------------------------------------- *)

let driver_tests =
  let open Builder in
  let left_recursive () =
    Grammar.make_exn ~start:"E"
      [
        prod "E" (e "E" @: c '-' @: e "N" <|> e "N");
        prod "N" (plus (r '0' '9'));
      ]
  in
  let run_ok ?dump_after passes g =
    match Driver.run ?dump_after passes g with
    | Ok o -> o
    | Error ds ->
        Alcotest.failf "driver failed: %s"
          (String.concat "; " (List.map Diagnostic.to_string ds))
  in
  [
    test "rows come back one per pass, in order" (fun () ->
        let g = Grammars.Minic.grammar () in
        let passes = Pipeline.passes () in
        let o = run_ok passes g in
        check
          Alcotest.(list string)
          "names"
          (List.map (fun (p : Pass.t) -> p.Pass.name) passes)
          (List.map (fun (r : Driver.row) -> r.pass_name) o.Driver.rows));
    test "deltas are consistent across rows" (fun () ->
        let g = Grammars.Minic.grammar () in
        let o = run_ok (Pipeline.passes ()) g in
        let rec chain before = function
          | [] -> ()
          | (r : Driver.row) :: rest ->
              check Alcotest.int (r.pass_name ^ " before") before r.prods_before;
              chain r.prods_after rest
        in
        chain (Grammar.length g) o.Driver.rows;
        check Alcotest.int "final"
          (Grammar.length o.Driver.grammar)
          (List.nth o.Driver.rows (List.length o.Driver.rows - 1))
            .Driver.prods_after);
    test "gate rejects left recursion before any optimization" (fun () ->
        match Driver.run (Pipeline.passes ()) (left_recursive ()) with
        | Error ds ->
            check Alcotest.bool "an error" true
              (List.exists Diagnostic.is_error ds)
        | Ok _ -> Alcotest.fail "expected rejection");
    test "a repaired grammar passes the gate" (fun () ->
        let o =
          run_ok (Pipeline.passes ())
            (Passes.eliminate_left_recursion (left_recursive ()))
        in
        let eng = Engine.prepare_exn o.Driver.grammar in
        check Alcotest.bool "parses" true (Engine.accepts eng "8-3-2"));
    test "lint warnings land in the outcome" (fun () ->
        let g =
          Grammar.make_exn ~start:"S" [ prod "S" (c 'a' <|> c 'a') ]
        in
        let o = run_ok (Pipeline.passes ()) g in
        check Alcotest.bool "warned" true (o.Driver.warnings <> []);
        check Alcotest.bool "no hard error" true
          (not (List.exists Diagnostic.is_error o.Driver.warnings)));
    test "dump_after sees every intermediate grammar" (fun () ->
        let seen = ref [] in
        let dump_after (p : Pass.t) (g' : Grammar.t) =
          seen := (p.Pass.name, Grammar.length g') :: !seen
        in
        let o =
          run_ok ~dump_after (Pipeline.passes ()) (Grammars.Minic.grammar ())
        in
        check Alcotest.int "one per pass"
          (List.length o.Driver.rows)
          (List.length !seen);
        check Alcotest.int "last matches outcome"
          (Grammar.length o.Driver.grammar)
          (snd (List.hd !seen)));
    test "verify accepts the full pipeline on minic" (fun () ->
        match
          Driver.run ~verify:true (Pipeline.passes ())
            (Grammars.Minic.grammar ())
        with
        | Ok _ -> ()
        | Error ds ->
            Alcotest.failf "verify rejected: %s"
              (String.concat "; " (List.map Diagnostic.to_string ds)));
    test "verify catches a pass that breaks the grammar" (fun () ->
        let vandal =
          {
            Pass.name = "vandal";
            doc = "drop every production but the start";
            run =
              (fun _ g ->
                Grammar.make_exn ~start:(Grammar.start g)
                  [ prod (Grammar.start g) (e "Gone") ]);
          }
        in
        match Driver.run ~verify:true [ vandal ] (Grammars.Calc.grammar ()) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected verification failure");
    test "parser_of routes through the gated driver" (fun () ->
        (match Rats.parser_of (left_recursive ()) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected rejection");
        match
          Rats.parser_of (Passes.eliminate_left_recursion (left_recursive ()))
        with
        | Ok eng -> check Alcotest.bool "parses" true (Engine.accepts eng "1-2")
        | Error _ -> Alcotest.fail "the repaired grammar was rejected");
  ]

(* --- the ladder and the full pipeline ------------------------------------------------------- *)

let pipeline_tests =
  [
    test "ladder rungs mirror the registry" (fun () ->
        let rungs = Pipeline.ladder (Grammars.Calc.grammar ()) in
        check
          Alcotest.(list string)
          "labels"
          (List.map (fun (s : Pipeline.step) -> s.Pipeline.label)
             (Pipeline.registry ()))
          (List.map (fun (r : Pipeline.rung) -> r.Pipeline.name) rungs));
    test "pipeline passes are the registry steps flattened" (fun () ->
        check
          Alcotest.(list string)
          "names"
          (List.concat_map
             (fun (s : Pipeline.step) ->
               List.map (fun (p : Pass.t) -> p.Pass.name) s.Pipeline.passes)
             (Pipeline.registry ()))
          (List.map (fun (p : Pass.t) -> p.Pass.name) (Pipeline.passes ())));
    test "ladder has ten rungs in order" (fun () ->
        let rungs = Pipeline.ladder (Grammars.Calc.grammar ()) in
        check Alcotest.int "count" 10 (List.length rungs);
        check Alcotest.string "first" "baseline" (List.hd rungs).Pipeline.name;
        check Alcotest.string "last" "+lean-values"
          (List.nth rungs 9).Pipeline.name);
    test "every rung parses the calc corpus identically" (fun () ->
        let g = Grammars.Calc.grammar () in
        let rng = Rng.create 11 in
        let inputs =
          List.init 10 (fun _ -> Grammars.Corpus.arith rng ~size:12)
        in
        let reference = Engine.prepare_exn ~config:Config.naive g in
        List.iter
          (fun (rung : Pipeline.rung) ->
            let eng = Engine.prepare_exn ~config:rung.config rung.grammar in
            List.iter
              (fun input ->
                check Alcotest.bool
                  (Printf.sprintf "%s on %S" rung.name input)
                  (Engine.accepts reference input)
                  (Engine.accepts eng input))
              inputs)
          (Pipeline.ladder g));
    test "memo entries shrink along the ladder" (fun () ->
        let g = Grammars.Minic.grammar () in
        let src = Grammars.Corpus.minic (Rng.create 3) ~functions:4 in
        let entries (rung : Pipeline.rung) =
          let eng = Engine.prepare_exn ~config:rung.config rung.grammar in
          Stats.memo_entries (Engine.run eng src).Engine.stats
        in
        let rungs = Pipeline.ladder g in
        let baseline = entries (List.hd rungs) in
        let final = entries (List.nth rungs 9) in
        check Alcotest.bool "reduced" true (final < baseline));
    test "optimize shrinks the minic grammar" (fun () ->
        let g = Grammars.Minic.grammar () in
        let g' = Pipeline.optimize g in
        check Alcotest.bool "fewer productions" true
          (Grammar.length g' < Grammar.length g));
    test "optimize preserves minic values" (fun () ->
        let g = Grammars.Minic.grammar () in
        let g' = Pipeline.optimize g in
        let src = Grammars.Corpus.minic (Rng.create 5) ~functions:3 in
        let e1 = Engine.prepare_exn ~config:Config.naive g in
        let e2 = Engine.prepare_exn ~config:Config.optimized g' in
        match (Engine.parse e1 src, Engine.parse e2 src) with
        | Ok a, Ok b -> check Alcotest.bool "equal" true (Value.equal a b)
        | _ -> Alcotest.fail "parse failure");
  ]

(* --- sharing ------------------------------------------------------------------ *)

(* Physical choices of a grammar, and how many of them are distinct by
   [Expr.equal]. The inliner shares one expansion among its sites, so
   the optimized builtins hold few more choices than distinct ones;
   copying every expansion to every site gave MiniC 163 and MiniJava
   119. *)
let choices g =
  let seen = Expr.Phys.create 64 in
  let physical = ref 0 and distinct = ref [] in
  let rec walk (e : Expr.t) =
    if not (Expr.Phys.mem seen e) then (
      Expr.Phys.add seen e ();
      (match e.it with
      | Expr.Alt _ ->
          incr physical;
          if not (List.exists (Expr.equal e) !distinct) then
            distinct := e :: !distinct
      | _ -> ());
      Expr.iter_children walk e)
  in
  List.iter (fun (p : Production.t) -> walk p.expr) (Grammar.productions g);
  (!physical, List.length !distinct)

let sharing_tests =
  List.map
    (fun (gname, grammar, physical, distinct) ->
      test (Printf.sprintf "optimized %s holds %d choices" gname physical)
        (fun () ->
          check
            Alcotest.(pair int int)
            "physical and distinct choices" (physical, distinct)
            (choices (Pipeline.optimize (grammar ())))))
    [
      ("MiniC", Grammars.Minic.grammar, 32, 29);
      ("MiniJava", Grammars.Minijava.grammar, 27, 24);
    ]

let () =
  Alcotest.run "optimize"
    [
      ("prune", prune_tests);
      ("transient", transient_tests);
      ("terminal", terminal_tests);
      ("inline", inline_tests);
      ("sharing", sharing_tests);
      ("fold", fold_tests);
      ("factor", factor_tests);
      ("leftrec", leftrec_tests);
      ("desugar", desugar_tests);
      ("analysis-ctx", ctx_tests);
      ("driver", driver_tests);
      ("pipeline", pipeline_tests);
    ]
