(* Engine tests. Most behaviours are checked under all three standard
   configurations (naive, packrat, optimized) — any divergence between
   them is itself a bug, since the optimizations must be observationally
   transparent. *)

open Rats

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let value_eq = Alcotest.testable (fun ppf v -> Value.pp ppf v) Value.equal

let configs =
  [ ("naive", Config.naive); ("packrat", Config.packrat);
    ("optimized", Config.optimized) ]

(* Run [f] under every configuration, labelling failures. *)
let each_config g f =
  List.iter
    (fun (label, cfg) ->
      match Engine.prepare ~config:cfg g with
      | Ok eng -> f label eng
      | Error (d :: _) ->
          Alcotest.failf "[%s] prepare: %s" label (Diagnostic.to_string d)
      | Error [] -> assert false)
    configs

let parse_ok label eng input =
  match Engine.parse eng input with
  | Ok v -> v
  | Error e ->
      Alcotest.failf "[%s] %S: %s" label input (Parse_error.message e)

let expect_value g input expected =
  each_config g (fun label eng ->
      check value_eq
        (Printf.sprintf "[%s] %S" label input)
        expected (parse_ok label eng input))

let expect_accepts g input yes =
  each_config g (fun label eng ->
      check Alcotest.bool
        (Printf.sprintf "[%s] %S" label input)
        yes (Engine.accepts eng input))

let b = Grammar.make_exn

(* --- matching and values ------------------------------------------------------ *)

let matching_tests =
  let open Builder in
  [
    test "literals match and yield no value" (fun () ->
        let g = b [ prod "S" (s "ab" @: c 'c') ] in
        expect_value g "abc" Value.Unit;
        expect_accepts g "abd" false;
        expect_accepts g "ab" false);
    test "classes yield the byte" (fun () ->
        let g = b [ prod "S" (r '0' '9') ] in
        expect_value g "7" (Value.Chr '7'));
    test "any yields the byte and respects eof" (fun () ->
        let g = b [ prod "S" any ] in
        expect_value g "x" (Value.Chr 'x');
        expect_accepts g "" false);
    test "empty matches the empty input" (fun () ->
        let g = b [ prod "S" eps ] in
        expect_value g "" Value.Unit);
    test "fail never matches" (fun () ->
        let g = b [ prod "S" (fail "boom" <|> c 'a') ] in
        expect_accepts g "a" true;
        expect_accepts g "b" false);
    test "sequence packs labeled components" (fun () ->
        let g = b [ prod "S" (("x" |: r 'a' 'z') @: c '-' @: ("y" |: r 'a' 'z')) ] in
        expect_value g "p-q"
          (Value.seq [ (Some "x", Value.Chr 'p'); (Some "y", Value.Chr 'q') ]));
    test "choice is ordered" (fun () ->
        let g = b [ prod "S" ((tok (s "aa") <|> tok (c 'a')) @: star any) ] in
        each_config g (fun label eng ->
            match parse_ok label eng "aa" with
            | Value.Node { children = (_, Value.Str first) :: _; _ } ->
                check Alcotest.string label "aa" first
            | Value.Str first -> check Alcotest.string label "aa" first
            | v -> Alcotest.failf "[%s] unexpected %s" label (Value.to_string v)));
    test "star collects values" (fun () ->
        let g = b [ prod "S" (star (r '0' '9')) ] in
        expect_value g "12" (Value.List [ Value.Chr '1'; Value.Chr '2' ]);
        expect_value g "" (Value.List []));
    test "plus needs one" (fun () ->
        let g = b [ prod "S" (plus (r '0' '9')) ] in
        expect_accepts g "" false;
        expect_value g "4" (Value.List [ Value.Chr '4' ]));
    test "opt yields unit when absent" (fun () ->
        let g = b [ prod "S" (opt (c 'x') @: c 'y') ] in
        expect_value g "y" Value.Unit;
        expect_value g "xy" Value.Unit);
    test "and-predicate consumes nothing" (fun () ->
        let g = b [ prod "S" (amp (c 'a') @: tok (star any)) ] in
        expect_value g "ab" (Value.Str "ab");
        expect_accepts g "ba" false);
    test "not-predicate consumes nothing" (fun () ->
        let g = b [ prod "S" (bang (c 'q') @: any) ] in
        expect_accepts g "x" true;
        expect_accepts g "q" false);
    test "token captures matched text" (fun () ->
        let g = b [ prod "S" (tok (plus (r 'a' 'z')) @: c '!') ] in
        expect_value g "hey!" (Value.Str "hey"));
    test "node wraps components" (fun () ->
        let g =
          b [ prod "S" (node "Pair" (("l" |: any) @: c ',' @: ("r" |: any))) ]
        in
        expect_value g "a,b"
          (Value.node "Pair" [ (Some "l", Value.Chr 'a'); (Some "r", Value.Chr 'b') ]));
    test "node records its span" (fun () ->
        let g = b [ prod "S" (c ' ' @: node "N" (s "ab")) ] in
        let eng = Engine.prepare_exn g in
        (match Engine.parse eng " ab" with
        | Ok (Value.Node _ as v) ->
            let span = Value.span v in
            check Alcotest.int "start" 1 (Span.start span);
            check Alcotest.int "stop" 3 (Span.stop span)
        | Ok v -> Alcotest.failf "unexpected %s" (Value.to_string v)
        | Error _ -> Alcotest.fail "parse failed"));
    test "drop discards the value" (fun () ->
        let g = b [ prod "S" (void (r '0' '9') @: r 'a' 'z') ] in
        expect_value g "1x" (Value.Chr 'x'));
    test "standalone bind labels the value" (fun () ->
        let g = b [ prod "S" ("n" |: r '0' '9') ] in
        expect_value g "3" (Value.seq [ (Some "n", Value.Chr '3') ]));
    test "production kinds shape the value" (fun () ->
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S"
                (e "G" @: e "T" @: e "V");
              prod ~kind:Attr.Generic "G" (r 'a' 'z');
              prod ~kind:Attr.Text "T" (plus (r '0' '9'));
              prod ~kind:Attr.Void "V" (r 'a' 'z');
            ]
        in
        expect_value g "x42z"
          (Value.seq
             [
               (None, Value.node "G" [ (None, Value.Chr 'x') ]);
               (None, Value.Str "42");
             ]));
    test "grammar recursion" (fun () ->
        let g =
          b [ prod "S" (c '(' @: opt (e "S") @: c ')') ]
        in
        expect_accepts g "((()))" true;
        expect_accepts g "(()" false);
  ]

(* --- entry points and errors ---------------------------------------------------- *)

let entry_tests =
  let open Builder in
  [
    test "require_eof off allows trailing input" (fun () ->
        let g = b [ prod "S" (c 'a') ] in
        let eng = Engine.prepare_exn g in
        check Alcotest.bool "prefix ok" true
          (Result.is_ok (Engine.run eng ~require_eof:false "abc").Engine.result);
        check Alcotest.bool "eof enforced" false
          (Result.is_ok (Engine.run eng "abc").Engine.result));
    test "consumed reports the prefix length" (fun () ->
        let g = b [ prod "S" (plus (r 'a' 'z')) ] in
        let eng = Engine.prepare_exn g in
        let out = Engine.run eng ~require_eof:false "abc123" in
        check Alcotest.int "consumed" 3 out.Engine.consumed;
        check Alcotest.bool "ok" true (Result.is_ok out.Engine.result);
        let out = Engine.run eng "123" in
        check Alcotest.int "failed" (-1) out.Engine.consumed);
    test "start override" (fun () ->
        let g =
          Grammar.make_exn ~start:"A" [ prod "A" (c 'a'); prod "B" (c 'b') ]
        in
        let eng = Engine.prepare_exn g in
        check Alcotest.bool "default" true (Engine.accepts eng "a");
        check Alcotest.bool "override" true (Engine.accepts eng ~start:"B" "b"));
    test "unknown start raises" (fun () ->
        let g = b [ prod "S" (c 'a') ] in
        let eng = Engine.prepare_exn g in
        match Engine.parse eng ~start:"Zed" "a" with
        | exception Diagnostic.Fail _ -> ()
        | _ -> Alcotest.fail "expected failure");
    test "farthest failure position" (fun () ->
        let g = b [ prod "S" (s "ab" @: s "cd" <|> s "abce") ] in
        each_config g (fun label eng ->
            match Engine.parse eng "abcx" with
            | Error e ->
                check Alcotest.int label 3 e.Parse_error.position
            | Ok _ -> Alcotest.failf "[%s] unexpected success" label));
    test "expected set mentions candidates" (fun () ->
        let g = b [ prod "S" (c 'a' <|> c 'b') ] in
        let eng = Engine.prepare_exn ~config:Config.packrat g in
        match Engine.parse eng "z" with
        | Error e ->
            let msg = Parse_error.message e in
            check Alcotest.bool "a" true
              (String.length msg > 0 && e.Parse_error.expected <> [])
        | Ok _ -> Alcotest.fail "expected failure");
    test "error on trailing input mentions end of input" (fun () ->
        let g = b [ prod "S" (c 'a') ] in
        let eng = Engine.prepare_exn g in
        match Engine.parse eng "ab" with
        | Error e ->
            check Alcotest.bool "eof" true
              (List.mem "end of input" e.Parse_error.expected)
        | Ok _ -> Alcotest.fail "expected failure");
    test "left recursion rejected at prepare" (fun () ->
        let g = b [ prod "E" (e "E" @: c '+' <|> c 'n') ] in
        match Engine.prepare g with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected rejection");
    test "dangling reference rejected at prepare" (fun () ->
        let g = b [ prod "S" (e "Ghost") ] in
        match Engine.prepare g with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected rejection");
    test "vacuous repetition rejected at prepare" (fun () ->
        let g = b [ prod "S" (star (star (c 'x'))) ] in
        match Engine.prepare g with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected rejection");
  ]

(* --- memoization ----------------------------------------------------------------- *)

(* A grammar designed to re-invoke [Tail] at the same position through
   backtracking: S = Tail 'x' / Tail 'y' / Tail. *)
let memo_grammar =
  let open Builder in
  Grammar.make_exn ~start:"S"
    [
      prod "S" (e "Tail" @: c 'x' <|> e "Tail" @: c 'y' <|> e "Tail");
      prod "Tail" (plus (r 'a' 'z'));
    ]

let memo_tests =
  [
    test "packrat hits where naive re-parses" (fun () ->
        let run cfg =
          let eng = Engine.prepare_exn ~config:cfg memo_grammar in
          (Engine.run eng "abcdef").Engine.stats
        in
        let naive = run Config.naive in
        let packrat = run Config.packrat in
        check Alcotest.int "no hits when naive" 0 naive.Stats.memo_hits;
        check Alcotest.bool "packrat hits" true (packrat.Stats.memo_hits >= 2);
        (* Tail is evaluated three times at position 0 by the naive
           engine but only once under packrat (plus two hits). *)
        check Alcotest.bool "fewer misses than naive evaluations" true
          (packrat.Stats.memo_misses < naive.Stats.invocations));
    test "chunked and hashtable agree on hits" (fun () ->
        let run memo =
          let eng =
            Engine.prepare_exn ~config:(Config.v ~memo ()) memo_grammar
          in
          (Engine.run eng "abcdef").Engine.stats
        in
        let h = run Config.Hashtable and c = run Config.Chunked in
        check Alcotest.int "hits" h.Stats.memo_hits c.Stats.memo_hits;
        check Alcotest.bool "chunks allocated" true (c.Stats.chunks_allocated > 0));
    test "memo slots shrink when transients are honored" (fun () ->
        let open Builder in
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (e "A" @: e "B");
              prod ~memo:Attr.Memo_never "A" (c 'a');
              prod "B" (c 'b');
            ]
        in
        let plain = Engine.prepare_exn ~config:(Config.v ~memo:Config.Chunked ()) g in
        let lean =
          Engine.prepare_exn
            ~config:(Config.v ~memo:Config.Chunked ~honor_transient:true ())
            g
        in
        check Alcotest.int "all slots" 3 (Engine.memo_slots plain);
        check Alcotest.int "fewer slots" 2 (Engine.memo_slots lean));
    test "failures are memoized too" (fun () ->
        let eng = Engine.prepare_exn ~config:Config.packrat memo_grammar in
        let stats = (Engine.run eng "abc!").Engine.stats in
        (* Tail fails at '!' once; S's alternatives each hit the memo. *)
        check Alcotest.bool "hits" true (stats.Stats.memo_hits >= 1));
    test "value-free memo hits restore Unit, never the vals row" (fun () ->
        (* The vmap contract, pinned end to end: a full-mode memo hit on
           a production whose slot is value-free (vslot = -1) must
           restore [Value.Unit] without touching the arena's vals row.
           T (Text, vslot 0) poisons the shared chunk at position 0 with
           its captured string before B (Void, vslot -1) stores and is
           then hit there — a hit that wrongly indexed the vals row
           would resurface T's "12" instead of Unit and change the
           parse value. Two inputs through the same engine cover both
           arena paths: the first run builds fresh scratch, the second
           reuses the parked pool (recycled chunks, values released). *)
        let open Builder in
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S"
                (("a" |: e "T") @: c 'x'
                <|> ("b" |: e "B") @: c 'y'
                <|> ("c" |: e "B") @: c ';');
              prod ~kind:Attr.Text ~memo:Attr.Memo_always "T"
                (plus (r '0' '9'));
              prod ~kind:Attr.Void ~memo:Attr.Memo_always "B"
                (plus (r '0' '9'));
            ]
        in
        let oracle = Engine.prepare_exn ~config:Config.naive g in
        List.iter
          (fun (label, cfg) ->
            let eng = Engine.prepare_exn ~config:cfg g in
            List.iter
              (fun input ->
                let expected = parse_ok "naive" oracle input in
                let out = Engine.run eng input in
                (match out.Engine.result with
                | Ok v ->
                    check value_eq
                      (Printf.sprintf "[%s] %S" label input)
                      expected v
                | Error e ->
                    Alcotest.failf "[%s] %S: %s" label input
                      (Parse_error.message e));
                check Alcotest.bool
                  (Printf.sprintf "[%s] %S hit the memo" label input)
                  true
                  (out.Engine.stats.Stats.memo_hits >= 1))
              [ "12;"; "345;" ])
          [
            ("optimized", Config.optimized);
            ("chunked full", Config.v ~memo:Config.Chunked ());
          ]);
    test "dispatch prunes doomed alternatives" (fun () ->
        let open Builder in
        let g =
          Grammar.make_exn ~start:"S"
            [ prod "S" (s "ax" <|> s "bx" <|> s "cx") ]
        in
        let no_dispatch = Engine.prepare_exn ~config:Config.packrat g in
        let dispatch =
          Engine.prepare_exn ~config:(Config.v ~dispatch:true ()) g
        in
        let b1 = (Engine.run no_dispatch "cx").Engine.stats.Stats.backtracks in
        let b2 = (Engine.run dispatch "cx").Engine.stats.Stats.backtracks in
        check Alcotest.int "no dispatch backtracks" 2 b1;
        check Alcotest.int "dispatch skips" 0 b2);
  ]

(* --- stateful parsing ---------------------------------------------------------------- *)

let typedef_grammar =
  (* A miniature of the C typedef problem:
     S    = Def Use
     Def  = "def " %record(T, Word) ";"
     Use  = %member(T, Word) ";"   (only defined words can be used)  *)
  let open Builder in
  Grammar.make_exn ~start:"S"
    [
      prod "S" (e "Def" @: e "Use");
      prod "Def" (s "def " @: record "T" (e "Word") @: c ';');
      prod "Use" (member "T" (e "Word") @: c ';');
      prod ~kind:Attr.Text "Word" (plus (r 'a' 'z'));
    ]

let state_tests =
  [
    test "recorded names become usable" (fun () ->
        expect_accepts typedef_grammar "def foo;foo;" true;
        expect_accepts typedef_grammar "def foo;bar;" false);
    test "absent requires non-membership" (fun () ->
        let open Builder in
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (e "Def" @: absent "T" (e "Word") @: c ';');
              prod "Def" (s "def " @: record "T" (e "Word") @: c ';');
              prod ~kind:Attr.Text "Word" (plus (r 'a' 'z'));
            ]
        in
        expect_accepts g "def foo;bar;" true;
        expect_accepts g "def foo;foo;" false);
    test "state rolls back on backtracking" (fun () ->
        (* First alternative records then fails; the record must not leak
           into the second alternative. *)
        let open Builder in
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S"
                (record "T" (e "Word") @: c '!'
                <|> e "Word" @: c ';' @: bang (member "T" (e "Word'")) @: e "Word'" @: c ';');
              prod ~kind:Attr.Text "Word" (plus (r 'a' 'z'));
              prod ~kind:Attr.Text "Word'" (plus (r 'a' 'z'));
            ]
        in
        (* "ab;ab;" — alternative 1 records "ab" then fails on '!'. If the
           rollback failed, !member would reject the second branch. *)
        expect_accepts g "ab;ab;" true);
    test "memoized stateful production replays after state change" (fun () ->
        (* S = A 'x' / A Use;  A = %record(T,'a').
           A runs at position 0 twice: once before the table rollback,
           once after. A stale memo hit would skip the re-record and Use
           would fail. *)
        let open Builder in
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (e "A" @: c 'x' <|> e "A" @: e "Use");
              prod "A" (record "T" (c 'a'));
              prod "Use" (member "T" (c 'a'));
            ]
        in
        expect_accepts g "aa" true);
    test "state snapshots are counted" (fun () ->
        (* Backtracking over a committed record restores the tables. *)
        let open Builder in
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (record "T" (c 'a') @: c '!' <|> c 'a' @: c 'b');
            ]
        in
        let eng = Engine.prepare_exn ~config:Config.packrat g in
        let stats = (Engine.run eng "ab").Engine.stats in
        check Alcotest.bool "snapshots" true (stats.Stats.state_snapshots >= 1));
    test "typedef behaviour survives every configuration" (fun () ->
        expect_accepts typedef_grammar "def abc;abc;" true);
  ]

(* --- tracing ---------------------------------------------------------------------------- *)

let trace_tests =
  let open Builder in
  let g =
    Grammar.make_exn ~start:"S"
      [ prod "S" (e "A" @: e "A"); prod "A" (plus (r 'a' 'z')) ]
  in
  let collect ?(config = Config.packrat) input =
    let events = ref [] in
    match
      Engine.trace ~config ~on_event:(fun ev -> events := ev :: !events) (Analysis.analyze g) input
    with
    | Ok out -> (out, List.rev !events)
    | Error _ -> Alcotest.fail "trace prepare failed"
  in
  [
    test "enter and exit events balance" (fun () ->
        let _, events = collect "ab" in
        let enters =
          List.length (List.filter (fun (e : Engine.trace_event) -> e.outcome = None) events)
        in
        let exits =
          List.length (List.filter (fun (e : Engine.trace_event) -> e.outcome <> None) events)
        in
        check Alcotest.int "balanced" enters exits;
        check Alcotest.bool "some events" true (enters > 0));
    test "event count equals invocation count times two" (fun () ->
        let out, events = collect "ab" in
        check Alcotest.int "2x invocations"
          (2 * out.Engine.stats.Stats.invocations)
          (List.length events));
    test "exits carry outcomes, failures are negative" (fun () ->
        let _, events = collect "a1" in
        check Alcotest.bool "has failure exit" true
          (List.exists
             (fun (e : Engine.trace_event) -> e.outcome = Some (-1))
             events));
    test "depth nests properly" (fun () ->
        let _, events = collect "ab" in
        let ok = ref true in
        let depth = ref 0 in
        List.iter
          (fun (e : Engine.trace_event) ->
            match e.outcome with
            | None ->
                if e.depth <> !depth then ok := false;
                incr depth
            | Some _ ->
                decr depth;
                if e.depth <> !depth then ok := false)
          events;
        check Alcotest.bool "nesting" true !ok;
        check Alcotest.int "returns to zero" 0 !depth);
    test "memo hits still appear as invocations" (fun () ->
        (* S invokes A twice at different positions; with the memo_grammar
           from above, hits show up as enter/exit pairs too. *)
        let events = ref 0 in
        (match
           Engine.trace ~config:Config.packrat
             ~on_event:(fun _ -> incr events)
             (Analysis.analyze memo_grammar) "abc"
         with
        | Ok out ->
            check Alcotest.int "2x invocations"
              (2 * out.Engine.stats.Stats.invocations)
              !events
        | Error _ -> Alcotest.fail "trace failed"));
  ]

(* --- pathological input --------------------------------------------------------------- *)

let path_tests =
  [
    test "packrat is immune to exponential backtracking" (fun () ->
        let g = Grammars.Path.grammar () in
        let eng = Engine.prepare_exn ~config:Config.packrat g in
        let input = Grammars.Corpus.pathological ~depth:60 in
        (* Would take astronomically long without memoization. *)
        check Alcotest.bool "accepts" true (Engine.accepts eng input));
    test "naive invocation count explodes, packrat's stays linear" (fun () ->
        let g = Grammars.Path.grammar () in
        let input = Grammars.Corpus.pathological ~depth:14 in
        let invs cfg =
          let eng = Engine.prepare_exn ~config:cfg g in
          (Engine.run eng input).Engine.stats.Stats.invocations
        in
        let naive = invs Config.naive and packrat = invs Config.packrat in
        check Alcotest.bool "exponential vs linear" true (naive > 20 * packrat));
  ]

(* --- resource limits ------------------------------------------------------------ *)

let calc_gram = lazy (Pipeline.optimize (Grammars.Calc.grammar ()))

let calc_eng cfg limits =
  Engine.prepare_exn ~config:(Config.with_limits limits cfg) (Lazy.force calc_gram)

let memo_configs = [ ("optimized", Config.optimized); ("packrat", Config.packrat) ]

let expect_trip label eng input which =
  match Engine.parse eng input with
  | Ok _ -> Alcotest.failf "[%s] unexpectedly accepted" label
  | Error e -> (
      match Parse_error.exhausted_which e with
      | Some w ->
          check Alcotest.string label (Limits.which_name which)
            (Limits.which_name w)
      | None ->
          Alcotest.failf "[%s] plain parse failure, expected %s trip: %s" label
            (Limits.which_name which) (Parse_error.message e))

let limits_tests =
  [
    test "fuel exhaustion is a structured error" (fun () ->
        let input = "1+1+1+1+1+1+1+1+1+1" in
        List.iter
          (fun (label, cfg) ->
            expect_trip label (calc_eng cfg (Limits.v ~fuel:20 ())) input
              Limits.Fuel)
          memo_configs);
    test "depth exhaustion is a structured error" (fun () ->
        let input = Grammars.Corpus.pathological ~depth:64 in
        List.iter
          (fun (label, cfg) ->
            expect_trip label (calc_eng cfg (Limits.v ~max_depth:16 ())) input
              Limits.Depth)
          memo_configs);
    test "oversized input is rejected before parsing" (fun () ->
        List.iter
          (fun (label, cfg) ->
            let eng = calc_eng cfg (Limits.v ~max_input_bytes:4 ()) in
            expect_trip label eng "1+1+1" Limits.Input;
            check Alcotest.bool (label ^ " small ok") true
              (Engine.accepts eng "1+1"))
          memo_configs);
    test "trip reports the farthest position and renders a message"
      (fun () ->
        let eng = calc_eng Config.optimized (Limits.v ~fuel:30 ()) in
        match Engine.parse eng "1+1+1+1+1+1+1+1+1+1" with
        | Ok _ -> Alcotest.fail "expected a trip"
        | Error e ->
            check Alcotest.bool "position advanced" true
              (e.Parse_error.position > 0);
            check Alcotest.bool "message mentions fuel" true
              (String.length (Parse_error.message e) > 0
              && Parse_error.exhausted_which e = Some Limits.Fuel));
    test "hardened preset changes nothing on well-behaved input" (fun () ->
        let input = "(1+2)*3 - 4/2" in
        List.iter
          (fun (_, cfg) ->
            let free = calc_eng cfg Limits.unlimited in
            let gov = calc_eng cfg Limits.hardened in
            check value_eq "same value"
              (Result.get_ok (Engine.parse free input))
              (Result.get_ok (Engine.parse gov input)))
          memo_configs);
    test "fuel is charged once per invocation" (fun () ->
        let input = "(1+2)*(3+4)**2" in
        List.iter
          (fun (label, cfg) ->
            let stats =
              (Engine.run (calc_eng cfg Limits.hardened) input).Engine.stats
            in
            check Alcotest.bool (label ^ " some fuel burned") true
              (stats.Stats.fuel_used > 0);
            check Alcotest.int (label ^ " fuel = invocations")
              stats.Stats.invocations stats.Stats.fuel_used)
          memo_configs);
    test "memo budget degrades instead of failing (all memo modes)"
      (fun () ->
        let input = "abcdef" in
        List.iter
          (fun (label, cfg) ->
            let full = Engine.prepare_exn ~config:cfg memo_grammar in
            let capped =
              Engine.prepare_exn
                ~config:(Config.with_limits (Limits.v ~max_memo_bytes:1 ()) cfg)
                memo_grammar
            in
            let of_run eng = Engine.run eng input in
            let a = of_run full and b = of_run capped in
            check Alcotest.bool (label ^ " same result") true
              (Result.is_ok a.Engine.result = Result.is_ok b.Engine.result);
            check Alcotest.int (label ^ " no stores under cap") 0
              b.Engine.stats.Stats.memo_stores;
            check Alcotest.bool (label ^ " degradations counted") true
              (b.Engine.stats.Stats.memo_degraded > 0))
          [
            ("hashtable", Config.packrat);
            ("chunked", Config.v ~memo:Config.Chunked ());
          ]);
    test "degraded run still memo-hits within the budget" (fun () ->
        (* Re-invokes T at every input position; a budget of two chunks
           leaves early positions memoized (serving hits) while later
           ones degrade. *)
        let open Builder in
        let g =
          Grammar.make_exn ~start:"S"
            [
              prod "S" (star (e "I"));
              prod "I" (e "T" @: c 'x' <|> e "T");
              prod "T" (r 'a' 'z');
            ]
        in
        let chunked = Config.v ~memo:Config.Chunked () in
        let budget =
          2 * Limits.chunk_cost
                (Engine.memo_slots (Engine.prepare_exn ~config:chunked g))
        in
        let eng =
          Engine.prepare_exn
            ~config:(Config.with_limits (Limits.v ~max_memo_bytes:budget ()) chunked)
            g
        in
        let stats = (Engine.run eng "ababab").Engine.stats in
        check Alcotest.bool "hits" true (stats.Stats.memo_hits >= 1);
        check Alcotest.bool "degraded" true (stats.Stats.memo_degraded >= 1));
    test "parsing twice yields identical stats (state resets per parse)"
      (fun () ->
        (* Mutable per-parse accounting (memo bytes in particular) must
           start fresh on every run: under a tight budget, a leak from
           the first parse would degrade memoization — and so change the
           counters — on the second. *)
        let input = "(1+2)*(3+4)-5" in
        List.iter
          (fun (label, cfg) ->
            let eng =
              calc_eng cfg (Limits.v ~fuel:100_000 ~max_memo_bytes:512 ())
            in
            let snapshot () =
              let o = Engine.run eng input in
              let st = o.Engine.stats in
              ( Result.is_ok o.Engine.result,
                st.Stats.invocations,
                st.Stats.memo_hits,
                st.Stats.memo_misses,
                st.Stats.memo_stores,
                st.Stats.memo_degraded,
                st.Stats.fuel_used )
            in
            let a = snapshot () and b = snapshot () in
            if a <> b then Alcotest.failf "%s: second parse drifted" label)
          [
            ("optimized", Config.optimized);
            ("packrat", Config.packrat);
          ]);
  ]

(* --- the expected tracker's 32-entry cap ----------------------------------- *)

let expected_tests =
  [
    test "overflow keeps the 32 smallest labels, in any arrival order"
      (fun () ->
        (* The tracker holds at most [Expected.max_entries] distinct
           descriptions per position. Feed 48 distinct labels in two
           opposite orders: the retained set must be the same — the
           lexicographically smallest 32 — or configurations that visit
           alternatives in different orders would report different
           errors past the cap. *)
        let labels = List.init 48 (Printf.sprintf "lbl%02d") in
        let names = Expected.names () in
        let ids = List.map (Expected.intern names) labels in
        let run order =
          let t = Expected.create names in
          List.iter (fun id -> Expected.record t 5 id) order;
          (* duplicates never displace anything *)
          List.iter (fun id -> Expected.record t 5 id) order;
          List.sort String.compare (Expected.descriptions t)
        in
        let fwd = run ids and rev = run (List.rev ids) in
        check Alcotest.int "cap" Expected.max_entries (List.length fwd);
        check (Alcotest.list Alcotest.string) "order-independent" fwd rev;
        check (Alcotest.list Alcotest.string) "the 32 smallest"
          (List.filteri (fun i _ -> i < Expected.max_entries)
             (List.sort String.compare labels))
          fwd);
    test "a new farthest position resets an overflowed list" (fun () ->
        let names = Expected.names () in
        let old =
          List.init 40 (fun i ->
              Expected.intern names (Printf.sprintf "old%02d" i))
        in
        let fresh = Expected.intern names "fresh" in
        let t = Expected.create names in
        List.iter (fun id -> Expected.record t 2 id) old;
        Expected.record t 7 fresh;
        check Alcotest.int "farthest" 7 (Expected.farthest t);
        check
          (Alcotest.list Alcotest.string)
          "reset" [ "fresh" ] (Expected.descriptions t));
    test "a trace records and reports ids interned after it was made" (fun () ->
        (* Bodies compile on first call, so a run's trace meets ids
           interned after the trace was sized: it grows to hold them,
           keeps what it recorded before, and prints each description
           from its source when the error is built. *)
        let names = Expected.names () in
        let early = Expected.intern names "early" in
        let t = Expected.create names in
        Expected.record t 3 early;
        let late =
          [
            Expected.intern_literal names "while";
            Expected.intern_char names 'x';
            Expected.fresh_set names (Charset.range 'a' 'c');
            Expected.fresh_pred names ~positive:false (Expr.str "//");
          ]
          @ List.init 20 (fun i -> Expected.fresh names (Printf.sprintf "late%03d" i))
        in
        List.iter (fun id -> Expected.record t 3 id) late;
        Expected.record t 3 early;
        let descs = Expected.descriptions t in
        check Alcotest.int "every id, once" 25 (List.length descs);
        List.iter
          (fun d -> check Alcotest.bool (d ^ " reported") true (List.mem d descs))
          [ "early"; "\"while\""; "'x'"; "[a-c]"; "not \"//\""; "late019" ];
        check Alcotest.string "printed once, reused"
          (Expected.describe names (List.nth late 2))
          (Expected.describe names (List.nth late 2));
        check Alcotest.bool "the same string" true
          (Expected.describe names (List.nth late 2)
          == Expected.describe names (List.nth late 2)));
    test "every configuration reports the same expected set past the cap"
      (fun () ->
        (* 40 distinct literal alternatives, all sharing the "kw" prefix
           so FIRST-byte dispatch cannot prune them, all failing at
           offset 2 on "kw~~" — more than the cap, so the deterministic
           overflow rule is what keeps the reports identical. *)
        let open Builder in
        let g =
          b
            [
              prod "S"
                (alt (List.init 40 (fun i -> s (Printf.sprintf "kw%02d!" i))));
            ]
        in
        let report cfg =
          match Engine.prepare ~config:cfg g with
          | Error _ -> Alcotest.fail "prepare"
          | Ok eng -> (
              match Engine.parse eng "kw~~" with
              | Ok _ -> Alcotest.fail "unexpected success"
              | Error e ->
                  check Alcotest.int "cap respected" Expected.max_entries
                    (List.length e.Parse_error.expected);
                  (e.Parse_error.position, e.Parse_error.expected))
        in
        let naive = report Config.naive and optimized = report Config.optimized in
        check Alcotest.int "same position" (fst naive) (fst optimized);
        check
          (Alcotest.list Alcotest.string)
          "same expected set" (snd naive) (snd optimized));
    test "expected sets are deduplicated" (fun () ->
        let g =
          Grammar.make_exn
            [
              Production.v "P0"
                (Expr.alt
                   [
                     Expr.chr 'a';
                     Expr.seq [ Expr.chr 'a'; Expr.chr 'b' ];
                     Expr.chr 'z';
                   ]);
            ]
        in
        (* force the non-dispatch path so both 'a' alternatives really
           run and report at the same position *)
        let eng = Engine.prepare_exn ~config:(Config.v ~memo:Config.No_memo ()) g in
        match Engine.parse eng "q" with
        | Ok _ -> Alcotest.fail "should not parse"
        | Error e ->
            let sorted = List.sort_uniq compare e.Parse_error.expected in
            check Alcotest.int "no duplicate entries" (List.length sorted)
              (List.length e.Parse_error.expected));
  ]

(* --- the reference interpreter -------------------------------------------- *)

(* Whole trees, spans included (structural equality; [Value.equal]
   ignores spans), error positions and expected sets, from the engine
   and from [Reference]. The engine keeps the [Expected.max_entries]
   smallest descriptions of a set; the reference keeps them all. *)
let agrees_with_reference label cfg g input =
  let eng = Engine.prepare_exn ~config:cfg g in
  let o = Engine.run eng input and r = Reference.run g input in
  check Alcotest.int (label ^ " consumed") r.Reference.consumed o.Engine.consumed;
  match (o.Engine.result, r.Reference.result) with
  | Ok va, Ok vb -> check Alcotest.bool (label ^ " same tree") true (va = vb)
  | Error e, Error (pos, descs) ->
      check Alcotest.int (label ^ " error position") pos e.Parse_error.position;
      if not cfg.Config.dispatch then
        check
          Alcotest.(list string)
          (label ^ " expected set")
          (List.filteri (fun i _ -> i < Expected.max_entries) descs)
          (List.sort_uniq compare e.Parse_error.expected)
  | Ok _, Error _ | Error _, Ok _ ->
      Alcotest.failf "%s: engine and reference disagree on acceptance of %S"
        label input

let every_config =
  ("chunked", Config.v ~memo:Config.Chunked ~honor_transient:true ()) :: configs

(* A grammar written as the property suite prints its cases: start P0,
   private productions, bodies in .rats syntax. *)
let grammar_of_text prods =
  Grammar.make_exn ~start:"P0"
    (List.map
       (fun (kind, name, body) ->
         match Meta_parser.parse_expr body with
         | Ok e ->
             Production.v ~attrs:(Attr.v ~kind ~visibility:Attr.Private ()) name e
         | Error d -> Alcotest.failf "%s: %s" name (Diagnostic.to_string d))
       prods)

(* Sizes the engine accepts: scale [k] doubles until the document is
   [target] bytes, then the seed moves past generator outputs the
   grammar rejects. *)
let sized_doc eng make target =
  let rec grow k = if String.length (make k k) >= target then k else grow (k * 2) in
  let k = grow 1 in
  let rec try_seed seed =
    let doc = make seed k in
    if Engine.accepts eng doc then doc
    else if seed < k + 20 then try_seed (seed + 1)
    else Alcotest.failf "no accepted document of %d bytes" target
  in
  try_seed k

let five_grammars =
  [
    ( "calc",
      Grammars.Calc.grammar (),
      fun seed k -> Grammars.Corpus.arith (Rng.create seed) ~size:(k * 8) );
    ( "json",
      Grammars.Json.grammar (),
      fun seed k ->
        (* one document's depth is capped: grow as an array *)
        "["
        ^ String.concat ", "
            (List.init k (fun i ->
                 Grammars.Corpus.json (Rng.create (seed + i)) ~size:40))
        ^ "]" );
    ( "minic",
      Grammars.Minic.grammar (),
      fun seed k -> Grammars.Corpus.minic (Rng.create seed) ~functions:k );
    ( "minic-ext",
      Grammars.Minic.extended_grammar (),
      fun seed k ->
        Grammars.Corpus.minic_extended (Rng.create seed) ~functions:k );
    ( "minijava",
      Grammars.Minijava.grammar (),
      fun seed k -> Grammars.Corpus.minijava (Rng.create seed) ~classes:k );
  ]

(* A digest of a tree that, unlike [Value.to_string], covers every
   node's span. *)
let span_digest v =
  let b = Buffer.create 4096 in
  let rec go = function
    | Value.Unit -> Buffer.add_char b 'U'
    | Value.Chr c ->
        Buffer.add_char b 'C';
        Buffer.add_char b c
    | Value.Str s -> Printf.bprintf b "S%d:%s" (String.length s) s
    | Value.List vs ->
        Printf.bprintf b "L%d" (List.length vs);
        List.iter go vs
    | Value.Node n ->
        Printf.bprintf b "N%d:%s@%d-%d/%d" (String.length n.name)
          n.name n.start_ n.stop
          (List.length n.children);
        List.iter
          (fun (l, v) ->
            (match l with
            | None -> Buffer.add_char b '-'
            | Some l -> Printf.bprintf b "+%d:%s" (String.length l) l);
            go v)
          n.children
  in
  go v;
  Digest.to_hex (Digest.string (Buffer.contents b))

let reference_tests =
  [
    (* Shrunk from a random case: P1's failure was first computed
       inside [!P1], where failures are not recorded, and the packrat
       memo replayed it outside the predicate without its expected
       entries — reporting offset 1 (expected "caa") where the
       unmemoized parse reaches offset 3 (expected &'c'). *)
    test "a memo entry made inside a predicate does not hide failures"
      (fun () ->
        let g =
          grammar_of_text
            [
              (Attr.Text, "P0", {|$(void:()) !P1 (<L0> "caa" / <L1> P1) (<L0> 'd' / <L1> .)|});
              (Attr.Generic, "P1", {|x:([cd]+ 'b' . &'c')|});
            ]
        in
        List.iter
          (fun (label, cfg) ->
            List.iter
              (fun input -> agrees_with_reference label cfg g input)
              [ "caad"; "cbbd"; "cbad"; "ccbcd"; "cbcd"; "ccada" ])
          every_config);
    (* The same defect through the recognizer erasure: the voidified
       grammar memoizes P3 inside [!P3] before calling it outside. *)
    test "a predicate-only memo entry, voidified grammar" (fun () ->
        let g =
          grammar_of_text
            [
              (Attr.Plain, "P0", {|@N(!P3 'd'? void:P3)|});
              (Attr.Plain, "P1", {|!(<L0> . / . / 'b' / <L1> @N(.) / <L2> (<L0> () / <L1> [a-c]))|});
              (Attr.Plain, "P2", {|!($([a-c]) / <L1> "adb"+ / $(.))|});
              (Attr.Text, "P3", {|@N(&('b' / <L1> 'b' / <L2> "dc"))|});
            ]
        in
        List.iter
          (fun g ->
            List.iter
              (fun (label, cfg) ->
                List.iter
                  (fun input -> agrees_with_reference label cfg g input)
                  [ "d"; ""; "c"; "b" ])
              every_config)
          [ g; Option.get (Batch.recognizer_erase g) ]);
    (* And through inlining, which moves P2 under the predicate of P1. *)
    test "a predicate-only memo entry, inlined grammar" (fun () ->
        let g =
          grammar_of_text
            [
              (Attr.Void, "P0", {|<L0> (P1 / "bcc") @N(P2) &() / $($([bc])) / [acd]+|});
              (Attr.Generic, "P1", {|&@N(<L0> P2 / <L1> 'a' / <L2> ())|});
              (Attr.Plain, "P2", {|&(<L0> void:"cac" / void:'a')|});
            ]
        in
        List.iter
          (fun g ->
            List.iter
              (fun (label, cfg) ->
                List.iter
                  (fun input -> agrees_with_reference label cfg g input)
                  [ "ad"; "b"; "a"; "acc"; ""; "d" ])
              every_config)
          [ g; Passes.inline_pass g ]);
    (* An alternative records a name into a state table and then fails;
       the backtrack must roll the table back so the later alternative
       does not see the phantom entry, also through nested choices and
       loops between the record and the failure. *)
    test "state rolls back across failed alternatives" (fun () ->
        let name_ = Expr.plus (Expr.cls (Charset.range 'a' 'z')) in
        let shallow =
          Grammar.make_exn
            [
              Production.v "P0"
                (Expr.alt
                   [
                     Expr.seq [ Expr.record "T" (Expr.token name_); Expr.fail "no" ];
                     Expr.seq
                       [ Expr.member "T" false (Expr.token name_); Expr.str "!" ];
                   ]);
            ]
        and deep =
          Grammar.make_exn
            [
              Production.v "P0"
                (Expr.alt
                   [
                     Expr.seq
                       [
                         Expr.record "T" (Expr.token name_);
                         Expr.alt [ Expr.str "--"; Expr.str "++" ];
                         Expr.star (Expr.chr '.');
                         Expr.fail "no";
                       ];
                     Expr.seq
                       [ Expr.member "T" false (Expr.token name_); Expr.any () ];
                   ]);
            ]
        in
        List.iter
          (fun (label, cfg) ->
            List.iter
              (fun (g, input) -> agrees_with_reference label cfg g input)
              [ (shallow, "abc!"); (shallow, "abc"); (deep, "abc--...x"); (deep, "abc--") ])
          every_config);
    test "five grammars agree with the reference, spans included" (fun () ->
        List.iter
          (fun (name, g, make) ->
            let opt = Pipeline.optimize g in
            let doc = sized_doc (Engine.prepare_exn opt) make 16384 in
            List.iter
              (fun (label, cfg) ->
                agrees_with_reference (name ^ " " ^ label) cfg opt doc)
              [ ("optimized", Config.optimized); ("naive", Config.naive) ])
          five_grammars);
    (* Digests recorded before node construction was fused into the
       sequence builders: the fused paths must reproduce every span. *)
    test "demo trees keep their spans" (fun () ->
        List.iter
          (fun (file, g, expected) ->
            let opt = Pipeline.optimize g in
            let doc = In_channel.with_open_bin file In_channel.input_all in
            match Engine.parse (Engine.prepare_exn opt) doc with
            | Ok v -> check Alcotest.string file expected (span_digest v)
            | Error _ -> Alcotest.failf "%s rejected" file)
          [
            ( "data/demo.java",
              Grammars.Minijava.grammar (),
              "de8db2aa6e44c6eadf1f2359ab1e274a" );
            ( "data/demo.c",
              Grammars.Minic.grammar (),
              "4a4660b4df62f9445ac4d16010da7e36" );
          ]);
  ]

(* --- charset bitmaps -------------------------------------------------------- *)

(* A class is lowered to a 256-byte bitmap ([Charmap]); every byte must
   be accepted exactly when the source charset contains it. *)
let bitmap_tests =
  let sets =
    [
      ("range", Charset.range 'a' 'f');
      ("union", Charset.union (Charset.range '0' '9') (Charset.singleton '_'));
      ( "complement",
        Charset.complement
          (Charset.union (Charset.singleton '\n') (Charset.range 'x' 'z')) );
      ("edges", Charset.union (Charset.singleton '\000') (Charset.singleton '\255'));
      ("full", Charset.full);
    ]
  in
  List.map
    (fun (name, set) ->
      test (Printf.sprintf "bitmap agrees with Charset.mem (%s)" name)
        (fun () ->
          let g = Grammar.make_exn [ Production.v "P0" (Expr.cls set) ] in
          each_config g (fun label eng ->
              for b = 0 to 255 do
                let c = Char.chr b in
                check Alcotest.bool
                  (Printf.sprintf "[%s] byte %d" label b)
                  (Charset.mem c set)
                  (Engine.accepts eng (String.make 1 c))
              done)))
    sets

(* --- backtrack unwinding through state transactions ----------------------- *)

(* An alternative records a name into a state table and then fails; the
   backtrack must roll the table back so the later alternative does not
   see the phantom entry. The reference, which threads immutable tables,
   pins the expected result under every configuration. *)
let unwind_tests =
  let name_ = Expr.plus (Expr.cls (Charset.range 'a' 'z')) in
  let g =
    Grammar.make_exn
      [
        Production.v "P0"
          (Expr.alt
             [
               (* record the name, then hit a dead end *)
               Expr.seq [ Expr.record "T" (Expr.token name_); Expr.fail "no" ];
               (* the name must NOT be in the table anymore *)
               Expr.seq [ Expr.member "T" false (Expr.token name_); Expr.str "!" ];
             ]);
      ]
  in
  let deep =
    (* several nested choice points between the record and the failure,
       so unwinding has to pop through intermediate frames *)
    Grammar.make_exn
      [
        Production.v "P0"
          (Expr.alt
             [
               Expr.seq
                 [
                   Expr.record "T" (Expr.token name_);
                   Expr.alt [ Expr.str "--"; Expr.str "++" ];
                   Expr.star (Expr.chr '.');
                   Expr.fail "no";
                 ];
               Expr.seq [ Expr.member "T" false (Expr.token name_); Expr.any () ];
             ]);
      ]
  in
  let agree name g input accepted =
    test name (fun () ->
        List.iter
          (fun (label, cfg) ->
            check Alcotest.bool (label ^ " accepts") accepted
              (Engine.accepts (Engine.prepare_exn ~config:cfg g) input);
            agrees_with_reference label cfg g input)
          every_config)
  in
  [
    agree "record rolled back across a failed alternative" g "abc!" true;
    agree "rollback agrees on rejection too" g "abc" false;
    (* the second alternative reads "abc" and one character, so the
       rest of the input is left over *)
    agree "unwinding pops through nested choices and loops" deep "abc--...x"
      false;
    agree "nested unwinding agrees on rejection" deep "abc--" false;
  ]

(* --- corpora against the reference ------------------------------------------ *)

(* Optimized builtin grammars on seeded corpora: the engine's tree,
   spans included, is the reference's under each memo strategy. *)
let corpus_tests =
  let cases =
    [
      ("calc", Grammars.Calc.grammar (), Grammars.Corpus.arith (Rng.create 7) ~size:400);
      ("json", Grammars.Json.grammar (), Grammars.Corpus.json (Rng.create 7) ~size:400);
      ( "minic",
        Grammars.Minic.grammar (),
        Grammars.Corpus.minic (Rng.create 7) ~functions:4 );
      ( "minic-ext",
        Grammars.Minic.extended_grammar (),
        Grammars.Corpus.minic_extended (Rng.create 7) ~functions:4 );
      ( "minijava",
        Grammars.Minijava.grammar (),
        Grammars.Corpus.minijava (Rng.create 7) ~classes:3 );
    ]
  in
  List.concat_map
    (fun (name, g, corpus) ->
      let opt = Pipeline.optimize g in
      List.map
        (fun (cfg_name, cfg) ->
          test (Printf.sprintf "%s corpus values equal (%s)" name cfg_name)
            (fun () ->
              check Alcotest.bool "accepted" true
                (Engine.accepts (Engine.prepare_exn ~config:cfg opt) corpus);
              agrees_with_reference name cfg opt corpus))
        [
          ("optimized", Config.optimized);
          ("packrat", Config.packrat);
          ("no memo", Config.naive);
        ])
    cases

(* --- builtin grammars against the reference -------------------------------- *)

(* Small hand-picked and seeded inputs, rejections included, through
   the optimized builtin grammars under every configuration: values,
   spans, error positions and expected sets are the reference's. *)
let agree_on_inputs name g inputs =
  let opt = Pipeline.optimize g in
  List.iter
    (fun (label, cfg) ->
      List.iteri
        (fun i input ->
          agrees_with_reference (Printf.sprintf "%s #%d [%s]" name i label) cfg
            opt input)
        inputs)
    every_config

(* Each production of the optimized grammar as the start, matching a
   prefix: where it stops, or where it fails, is the reference's. *)
let agree_from_every_start name g inputs =
  let opt = Pipeline.optimize g in
  List.iter
    (fun (label, cfg) ->
      let eng = Engine.prepare_exn ~config:cfg opt in
      List.iter
        (fun (p : Production.t) ->
          List.iter
            (fun input ->
              let what = Printf.sprintf "%s %s %S [%s]" name p.name input label in
              let o = Engine.run eng ~start:p.name ~require_eof:false input
              and r = Reference.run opt ~start:p.name ~require_eof:false input in
              check Alcotest.int (what ^ " consumed") r.Reference.consumed
                o.Engine.consumed;
              match (o.Engine.result, r.Reference.result) with
              | Ok va, Ok vb -> check Alcotest.bool (what ^ " same tree") true (va = vb)
              | Error e, Error (pos, _) ->
                  check Alcotest.int (what ^ " error position") pos
                    e.Parse_error.position
              | _ -> Alcotest.failf "%s: acceptance differs" what)
            inputs)
        (Grammar.productions opt))
    every_config

let builtin_tests =
  [
    test "hand-picked calculator inputs agree with the reference" (fun () ->
        agree_on_inputs "calc" (Grammars.Calc.grammar ())
          [
            "1+2*3"; "2**3**2"; "(1+2)*3"; "8/4/2"; " 1 + 2 "; "1+"; "";
            "((7))"; "3.25*4"; "1..2"; ")(";
          ]);
    test "a random calculator corpus agrees with the reference" (fun () ->
        let rng = Rng.create 1234 in
        agree_on_inputs "calc-corpus" (Grammars.Calc.grammar ())
          (List.init 100 (fun _ -> Grammars.Corpus.arith rng ~size:15)));
    test "calc parses from the Sum production" (fun () ->
        (* Spacing is inlined away by the optimizer; Sum survives. *)
        let opt = Pipeline.optimize (Grammars.Calc.grammar ()) in
        each_config opt (fun label eng ->
            check Alcotest.bool label true
              (Engine.accepts eng ~start:"Sum" "1+1")));
    test "every calc production, as the start, agrees with the reference"
      (fun () ->
        agree_from_every_start "calc" (Grammars.Calc.grammar ())
          [ "1+2*3"; "(4) "; " 2**x"; "" ]);
    test "calc values evaluate alike under every configuration" (fun () ->
        let opt = Pipeline.optimize (Grammars.Calc.grammar ()) in
        each_config opt (fun label eng ->
            check (Alcotest.float 1e-9) label 9.0
              (Grammars.Calc.eval (parse_ok label eng "2**3 + 1"))));
    test "hand-picked JSON inputs agree with the reference" (fun () ->
        agree_on_inputs "json" (Grammars.Json.grammar ())
          [
            "{}"; "[]"; "null"; "true"; "-12.5e3"; {|{"a": [1, {"b": null}]}|};
            {|"esc\"aped"|}; "[1,]"; "{"; "01"; {| [true, false] |};
          ]);
    test "a random JSON corpus agrees with the reference" (fun () ->
        let rng = Rng.create 77 in
        agree_on_inputs "json-corpus" (Grammars.Json.grammar ())
          (List.init 60 (fun _ -> Grammars.Corpus.json rng ~size:20)));
    test "every JSON production, as the start, agrees with the reference"
      (fun () ->
        agree_from_every_start "json" (Grammars.Json.grammar ())
          [ {|{"a": [1, 2]}|}; "[true, nul"; " -0.5e"; "" ]);
    test "MiniC typedefs gate declarations as in the reference" (fun () ->
        let g = Grammars.Minic.grammar () in
        let with_typedef = "typedef int t; void f() { t x; }"
        and without = "void f() { t x; }"
        and rollback = "typedef int t; void f(int a, int b) { a * b; }" in
        agree_on_inputs "minic" g [ with_typedef; without; rollback ];
        each_config (Pipeline.optimize g) (fun label eng ->
            check Alcotest.bool (label ^ " with typedef") true
              (Engine.accepts eng with_typedef);
            check Alcotest.bool (label ^ " without typedef") false
              (Engine.accepts eng without);
            check Alcotest.bool (label ^ " rollback") true
              (Engine.accepts eng rollback)));
    test "small MiniC programs agree with the reference" (fun () ->
        agree_on_inputs "minic-corpus" (Grammars.Minic.grammar ())
          (List.init 10 (fun seed ->
               Grammars.Corpus.minic (Rng.create (100 + seed)) ~functions:2)));
    test "base MiniC rejects extension syntax where the reference does"
      (fun () ->
        let until = "void f(int a) { until (a) a++; }" in
        agree_on_inputs "minic" (Grammars.Minic.grammar ()) [ until ];
        each_config (Pipeline.optimize (Grammars.Minic.grammar ()))
          (fun label eng ->
            check Alcotest.bool label false (Engine.accepts eng until)));
    test "hand-picked MiniC extension programs agree with the reference"
      (fun () ->
        agree_on_inputs "minic-ext" (Grammars.Minic.extended_grammar ())
          [
            "int f(int a) { return a ** 2 ** 3 * 4; }";
            "void f(int a) { until (a > 3) a++; }";
            "int f(int lim) { return query { select a, b from t where a < lim \
             ** 2 }; }";
            "typedef int t; void f() { t x = 2 ** 3; until (x) x = x - 1; }";
            "void f() { t x = 2 ** 3; }";
            "int f() { return query { select from t }; }";
          ]);
    test "small MiniJava programs agree with the reference" (fun () ->
        agree_on_inputs "java-corpus" (Grammars.Minijava.grammar ())
          (List.init 10 (fun seed ->
               Grammars.Corpus.minijava (Rng.create (200 + seed)) ~classes:2)));
    test "a MiniJava error is located past the dangling operator" (fun () ->
        let src = "class A { int f() { return 1 + ; } }" in
        agree_on_inputs "java" (Grammars.Minijava.grammar ()) [ src ];
        each_config (Pipeline.optimize (Grammars.Minijava.grammar ()))
          (fun label eng ->
            match Engine.parse eng src with
            | Error e ->
                check Alcotest.bool label true
                  (e.Parse_error.position > String.index src '+')
            | Ok _ -> Alcotest.failf "[%s] accepted" label));
  ]

(* --- memo layout per configuration ----------------------------------------- *)

let layout_tests =
  let minic = lazy (Pipeline.optimize (Grammars.Minic.grammar ())) in
  let program = Grammars.Corpus.minic (Rng.create 5) ~functions:3 in
  [
    test "the no-memo configuration writes no memo entries" (fun () ->
        let o = Engine.run (Engine.prepare_exn ~config:Config.naive (Lazy.force minic)) program in
        check Alcotest.bool "accepted" true (Result.is_ok o.Engine.result);
        List.iter
          (fun (name, n) -> check Alcotest.int name 0 n)
          [
            ("hits", o.Engine.stats.Stats.memo_hits);
            ("misses", o.Engine.stats.Stats.memo_misses);
            ("stores", o.Engine.stats.Stats.memo_stores);
            ("chunks", o.Engine.stats.Stats.chunks_allocated);
          ]);
    test "chunks are as wide as the engine's memo slot count" (fun () ->
        List.iter
          (fun (label, cfg) ->
            let eng = Engine.prepare_exn ~config:cfg (Lazy.force minic) in
            let st = (Engine.run eng program).Engine.stats in
            check Alcotest.bool (label ^ " chunks") true (st.Stats.chunks_allocated > 0);
            check Alcotest.int (label ^ " width")
              (st.Stats.chunks_allocated * Engine.memo_slots eng)
              st.Stats.chunk_slots)
          [
            ("optimized", Config.optimized);
            ("chunked", Config.v ~memo:Config.Chunked ~honor_transient:true ());
          ]);
    test "dispatch agrees with the reference on shared-prefix choices"
      (fun () ->
        let open Builder in
        let g =
          Grammar.make_exn
            [
              prod "S" (plus (e "A") @: c ';');
              prod "A" (s "ax" <|> s "bx" <|> s "ay" <|> plus (r 'c' 'e'));
            ]
        in
        List.iter
          (fun (label, cfg) ->
            List.iter
              (agrees_with_reference label cfg g)
              [ "ax;"; "bxayce;"; "az;"; "cx;"; ";"; "ayb;"; "" ])
          [
            ("dispatch", Config.v ~dispatch:true ());
            ("optimized", Config.optimized);
          ]);
    test "the extended MiniC grammar prepares under every configuration"
      (fun () ->
        let opt = Pipeline.optimize (Grammars.Minic.extended_grammar ()) in
        let program =
          Grammars.Corpus.minic_extended (Rng.create 3) ~functions:2
        in
        each_config opt (fun label eng ->
            check Alcotest.bool label true (Engine.accepts eng program)));
  ]

let () =
  Alcotest.run "runtime"
    [
      ("matching", matching_tests);
      ("entry", entry_tests);
      ("memo", memo_tests);
      ("state", state_tests);
      ("trace", trace_tests);
      ("pathological", path_tests);
      ("limits", limits_tests);
      ("expected", expected_tests);
      ("reference", reference_tests);
      ("bitmaps", bitmap_tests);
      ("unwinding", unwind_tests);
      ("corpora", corpus_tests);
      ("builtins", builtin_tests);
      ("memo layout", layout_tests);
    ]
