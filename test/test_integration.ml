(* End-to-end flows through the public facade: the paths a downstream
   user actually takes, including the paper's headline scenario — extend
   a published language with your own module without touching it. *)

open Rats

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let ok = function
  | Ok v -> v
  | Error (d :: _) -> Alcotest.failf "unexpected error: %s" (Diagnostic.to_string d)
  | Error [] -> Alcotest.fail "unexpected empty error"

let facade_tests =
  [
    test "string to parse in four calls" (fun () ->
        let modules =
          ok
            (modules_of_string
               "module Greeting; public Hello = \"hello\" ' '* \"world\" !.;")
        in
        let grammar = ok (compose ~root:"Greeting" modules) in
        let parser = ok (parser_of grammar) in
        check Alcotest.bool "accepts" true
          (Result.is_ok (parse parser "hello   world"));
        check Alcotest.bool "rejects" true
          (Result.is_error (parse parser "hello worlds")));
    test "modules_of_file round trip" (fun () ->
        let path = Filename.temp_file "rats" ".rats" in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc "module FromDisk; public X = 'x';");
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let modules = ok (modules_of_file path) in
            check Alcotest.int "one module" 1 (List.length modules)));
    test "missing file is a diagnostic, not an exception" (fun () ->
        match modules_of_file "/no/such/file.rats" with
        | Error (_ :: _) -> ()
        | _ -> Alcotest.fail "expected diagnostics");
    test "parse_input agrees with parse, on success and on error" (fun () ->
        let parser = ok (parser_of (Grammars.Json.grammar ())) in
        List.iter
          (fun text ->
            match (parse parser text, parse_input parser (Input.of_string text)) with
            | Ok a, Ok b -> check Alcotest.bool text true (a = b)
            | Error a, Error b ->
                check Alcotest.string text (Parse_error.message a)
                  (Parse_error.message b)
            | _ -> Alcotest.failf "%S: acceptance differs" text)
          [ {|{"a": [1, {"b": null}]}|}; "[1,]"; "" ]);
    test "composition errors carry spans into the source text" (fun () ->
        let text = "module M; public X = Ghost;" in
        let modules = ok (modules_of_string text) in
        match compose ~root:"M" modules with
        | Error (d :: _) ->
            check Alcotest.bool "mentions Ghost" true
              (contains d.Diagnostic.message "Ghost")
        | _ -> Alcotest.fail "expected failure");
  ]

(* The user story behind experiment E6 and the paper's introduction. *)
let extension_story_tests =
  [
    test "a user module extends the shipped calculator" (fun () ->
        (* The user writes ONE module; calc.* ships with the library. *)
        let user_module =
          {|
module user.Percent(S);
modify calc.Pow(S) as Base;
import calc.Number(S) as N;

// a postfix percent operator: 50% == 0.5
Factor += first <Percent> @Percent(@Num(N.Number) void:'%' S.Spacing);
|}
        in
        let lib =
          Resolve.library_exn
            (ok (modules_of_string (List.hd Grammars.Calc.texts)))
        in
        let lib =
          match Resolve.extend lib (ok (modules_of_string user_module)) with
          | Ok l -> l
          | Error _ -> Alcotest.fail "extend failed"
        in
        match
          Resolve.resolve lib ~root:"user.Percent" ~args:[ "calc.Space" ] ()
        with
        | Error (d :: _) -> Alcotest.failf "%s" (Diagnostic.to_string d)
        | Error [] -> assert false
        | Ok (g, _) ->
            let eng = Engine.prepare_exn g in
            check Alcotest.bool "new syntax" true
              (Engine.accepts eng ~start:"Sum" "50% * 2");
            check Alcotest.bool "old syntax" true
              (Engine.accepts eng ~start:"Sum" "2**3 + 1"));
    test "base modules remain untouched by the extension" (fun () ->
        (* Composing the original calc.Main after the extension exists
           still yields a grammar without Percent. *)
        let g = Grammars.Calc.grammar () in
        check Alcotest.bool "no percent" false (Grammar.mem g "Percent"));
    test "minic extension module line counts are small" (fun () ->
        (* The E6 claim: each extension is a handful of lines, the base
           is untouched. *)
        List.iter
          (fun text ->
            let lines =
              List.length
                (List.filter
                   (fun l ->
                     String.trim l <> ""
                     && not (String.length (String.trim l) > 1
                             && String.sub (String.trim l) 0 2 = "//"))
                   (String.split_on_char '\n' text))
            in
            check Alcotest.bool "under 20 lines" true (lines <= 20))
          [ List.nth Grammars.Minic.extension_texts 0;
            List.nth Grammars.Minic.extension_texts 1;
            List.nth Grammars.Minic.extension_texts 2 ]);
  ]

let error_report_tests =
  [
    test "parse errors render with caret excerpts" (fun () ->
        let g = Grammars.Minic.grammar () in
        let eng = Engine.prepare_exn g in
        let input = "int f() {\n  return 1 +;\n}\n" in
        match Engine.parse eng input with
        | Error e ->
            let src = Source.of_string ~name:"bad.c" input in
            let rendered = Parse_error.to_string ~source:src e in
            check Alcotest.bool "file:line:col" true (contains rendered "bad.c:2");
            check Alcotest.bool "caret" true (String.contains rendered '^')
        | Ok _ -> Alcotest.fail "expected parse error");
    test "error location is the farthest point, not the start" (fun () ->
        let g = Grammars.Json.grammar () in
        let eng = Engine.prepare_exn g in
        match Engine.parse eng {|{"a": [1, 2, }|} with
        | Error e ->
            check Alcotest.bool "deep" true (e.Parse_error.position >= 13)
        | Ok _ -> Alcotest.fail "expected parse error");
    test "composition diagnostics point at grammar source" (fun () ->
        let text =
          "module Base; public X = <A> 'a';\n\
           module Ext; modify Base;\n\
           X += before <Missing> <B> 'b';"
        in
        let lib = Resolve.library_exn (ok (modules_of_string text)) in
        match Resolve.resolve lib ~root:"Ext" () with
        | Error (d :: _) ->
            check Alcotest.bool "span" true (not (Span.is_dummy d.Diagnostic.span))
        | _ -> Alcotest.fail "expected failure");
  ]

(* The CLI's tables agree with what the library ships. *)
let consistency_tests =
  [
    test "CLI builtins cover every shipped grammar" (fun () ->
        (* the table --builtin reads, composed at run time and loaded
           from the snapshot rml links *)
        List.iter
          (fun (name, (b : Run.builtin)) ->
            let g = ok (Run.compose { Run.default with builtin = Some name }) in
            check Alcotest.bool (name ^ " composes " ^ b.root) true
              (Grammar.length g > 0);
            List.iter
              (fun optimized ->
                check Alcotest.bool (name ^ " is snapshotted") true
                  (Option.is_some (Rats_snapshot.find name ~optimized)))
              [ false; true ])
          Run.builtins);
    test "version string is well-formed" (fun () ->
        check Alcotest.bool "dotted" true (String.contains version '.'));
  ]

(* rml loads the built-ins from a snapshot composed at build time
   (lib/snapshot); every other spec composes at run time. The table of
   test/cli/snapshot_ab.sh, which checks rml both ways: each built-in's
   name, root module and demo document (from the repository root). *)
let snapshot_ab_table () =
  In_channel.with_open_bin "cli/snapshot_ab.sh" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ name; root; demo ] when List.mem_assoc name Run.builtins ->
             Some (name, (root, "../" ^ demo))
         | _ -> None)

(* Every node a traversal meets, and how many of them are physically
   distinct: Marshal must keep the inliner's shared expansions shared. *)
let sharing g =
  let seen = Expr.Phys.create 256 in
  let total =
    List.fold_left
      (fun n (p : Production.t) ->
        Expr.fold
          (fun n e ->
            Expr.Phys.replace seen e ();
            n + 1)
          n p.expr)
      0 (Grammar.productions g)
  in
  (total, Expr.Phys.length seen)

(* What a run prints of one document: the tree or the error, the
   counters, and the coverage report of an observed engine. Each engine
   is prepared from its own [analysis ()]. *)
let run_report analysis text =
  let out = Engine.run (ok (Engine.prepare_analysis ~config:Config.optimized (analysis ()))) text in
  let coverage =
    let cfg = Config.with_observe { Observe.off with coverage = true } Config.optimized in
    let eng = ok (Engine.prepare_analysis ~config:cfg (analysis ())) in
    ignore (Engine.run eng text);
    Format.asprintf "%a" Observe.pp_coverage (Option.get (Engine.observation eng))
  in
  ( (match out.result with
    | Ok v -> Value.to_string v
    | Error e -> "error: " ^ Parse_error.message e),
    Stats.to_json out.stats,
    coverage )

let snapshot_tests =
  let sentinel = Grammar.make_exn [ Production.v "Sentinel" Expr.empty ] in
  let asked = ref [] in
  let fake name ~optimized =
    asked := (name, optimized) :: !asked;
    Some (Analysis.analyze sentinel)
  in
  let picks gs =
    asked := [];
    let g = ok (Run.grammar_of ~snapshot:fake gs) in
    (g == sentinel, !asked)
  in
  let calc = { Run.default with builtin = Some "calc" } in
  [
    test "snapshot_ab.sh runs every built-in from its own root" (fun () ->
        check
          Alcotest.(list (pair string string))
          "name, root"
          (List.map (fun (name, (b : Run.builtin)) -> (name, b.root)) Run.builtins)
          (List.map (fun (name, (root, _)) -> (name, root)) (snapshot_ab_table ())));
    test "a spec that is exactly a built-in loads the snapshot" (fun () ->
        List.iter
          (fun optimize ->
            check
              Alcotest.(pair bool (list (pair string bool)))
              (Printf.sprintf "optimize=%b" optimize)
              (true, [ ("calc", optimize) ])
              (picks { calc with optimize }))
          [ false; true ]);
    test "files, --root, --start and -L bypass the snapshot" (fun () ->
        List.iter
          (fun (what, gs) ->
            check
              Alcotest.(pair bool (list (pair string bool)))
              what (false, []) (picks gs))
          [
            ("a .rats file", { calc with files = [ "../grammars/tutorial.rats" ] });
            ("--root", { calc with root = Some "calc.Main" });
            ("--start", { calc with start = Some "Calculation" });
            ("-L", { calc with leftrec = true; optimize = true });
            ( "no built-in",
              { Run.default with files = [ "../grammars/tutorial.rats" ]; root = Some "tutorial.Ini" }
            );
          ]);
    test "the snapshot is the run-time composition, raw and -O, erased or not"
      (fun () ->
        List.iter
          (fun (name, (_, demo)) ->
            let text = In_channel.with_open_bin demo In_channel.input_all in
            List.iter
              (fun (optimize, recognize) ->
                let gs = { Run.default with builtin = Some name; optimize; recognize } in
                let label = Printf.sprintf "%s optimize=%b recognize=%b" name optimize recognize in
                let loaded = ok (Run.grammar_of ~snapshot:Rats_snapshot.find gs) in
                let composed = ok (Run.grammar_of gs) in
                check Alcotest.string (label ^ ": printed grammar")
                  (Pretty.grammar_to_string composed) (Pretty.grammar_to_string loaded);
                check Alcotest.(pair int int) (label ^ ": sharing") (sharing composed)
                  (sharing loaded);
                let facts snapshot () = ok (Run.analysis_of ?snapshot gs) in
                let tree, stats, coverage = run_report (facts None) text in
                let tree', stats', coverage' =
                  run_report (facts (Some Rats_snapshot.find)) text
                in
                check Alcotest.string (label ^ ": output") tree tree';
                check Alcotest.string (label ^ ": counters") stats stats';
                check Alcotest.string (label ^ ": coverage") coverage coverage')
              [ (false, false); (false, true); (true, false); (true, true) ])
          (snapshot_ab_table ()));
    test "a run compiles the bodies it calls, no others" (fun () ->
        (* value-building and recognizer bodies compiled by one parse -O
           of each demo document, out of the grammar's productions *)
        List.iter
          (fun (name, demo, want) ->
            let a = ok (Run.analysis_of ~snapshot:Rats_snapshot.find
                          { Run.default with builtin = Some name; optimize = true }) in
            let eng = ok (Engine.prepare_analysis a) in
            let prods = Grammar.length (Analysis.grammar a) in
            check Alcotest.(pair int int) (name ^ ": prepared") (0, 0)
              (Engine.compiled_bodies eng);
            let text = In_channel.with_open_bin demo In_channel.input_all in
            ignore (Engine.run eng text);
            check Alcotest.(triple int int int) (name ^ ": called, of")
              want
              (let full, recs = Engine.compiled_bodies eng in
               (full, recs, prods));
            Engine.compile_all eng;
            check Alcotest.(pair int int) (name ^ ": all") (prods, prods)
              (Engine.compiled_bodies eng))
          [
            ("calc", "../test/data/demo.calc", (7, 0, 7));
            ("json", "../test/data/demo.json", (5, 0, 5));
            ("minic", "../test/data/demo.c", (35, 1, 43));
            ("minijava", "../test/data/demo.java", (29, 4, 35));
          ]);
    test "a snapshot's facts are complete: prepare and compile compute none" (fun () ->
        (* gen.exe ships each grammar's analysis after compiling every
           body, its session engine's too, so no configuration's
           prepare or compile of it, nor its session engine's
           derivation and compile, derives a fact again,
           [Analysis.check] included; the same grammar without its
           facts derives them *)
        let configs =
          [
            ("optimized", Config.optimized);
            ("packrat", Config.packrat);
            ("observed", Config.with_observe (Observe.all ()) Config.optimized);
          ]
        in
        List.iter
          (fun (name, _) ->
            List.iter
              (fun optimized ->
                List.iter
                  (fun (cname, config) ->
                    let label = Printf.sprintf "%s optimized=%b %s" name optimized cname in
                    let a = Option.get (Rats_snapshot.find name ~optimized) in
                    let before = Analysis.computed a in
                    let eng = ok (Engine.prepare_analysis ~config a) in
                    Engine.compile_all eng;
                    Engine.compile_all (Engine.for_session eng);
                    check Alcotest.int (label ^ ": facts computed") before
                      (Analysis.computed a);
                    let bare = Analysis.analyze (Analysis.grammar a) in
                    ignore (Analysis.check bare);
                    check Alcotest.bool (label ^ ": a bare analysis checks") true
                      (Analysis.computed bare > 0))
                  configs)
              [ false; true ])
          Run.builtins);
  ]

let slow name f = Alcotest.test_case name `Slow f

let roundtrip_tests =
  [
    test "composed grammar survives print -> reparse -> compose" (fun () ->
        (* Serialize the flattened MiniC grammar as one module and check
           the re-composed parser accepts the same corpus. *)
        let g = Grammars.Minic.grammar () in
        let text = "module Flat;\n" ^ Pretty.grammar_to_string g in
        let modules = ok (modules_of_string text) in
        let g' = ok (compose ~root:"Flat" modules) in
        (match Resolve.library modules with Ok _ -> () | Error _ -> ());
        let g' =
          match Grammar.with_start g' (Grammar.start g) with
          | Ok g -> g
          | Error _ -> Alcotest.fail "start lost in round trip"
        in
        let e1 = Engine.prepare_exn g and e2 = Engine.prepare_exn g' in
        for seed = 1 to 5 do
          let src = Grammars.Corpus.minic (Rng.create seed) ~functions:2 in
          check Alcotest.bool "same acceptance" (Engine.accepts e1 src)
            (Engine.accepts e2 src)
        done);
    slow "soak: a quarter-megabyte program parses" (fun () ->
        let g = Pipeline.optimize (Grammars.Minic.grammar ()) in
        let eng = Engine.prepare_exn g in
        let src = Grammars.Corpus.minic (Rng.create 99) ~functions:800 in
        check Alcotest.bool "big" true (String.length src > 250_000);
        match Engine.parse eng src with
        | Ok v ->
            check Alcotest.bool "lots of nodes" true (Value.count_nodes v > 100_000)
        | Error e -> Alcotest.failf "soak: %s" (Parse_error.message e));
  ]

(* Four domains share one prepared engine and parse the same 64 seeded
   documents (every eighth one truncated, so error reports are in the
   mix) 3,001 times each; every result must equal the sequential
   parse's: the same value, or the same error message. Concurrent runs
   must never share the memo scratch or the failure tracker the engine
   parks between runs. *)
let parallel_tests =
  [
    test "one engine parses concurrently from four domains" (fun () ->
        let g = Pipeline.optimize (Grammars.Json.grammar ()) in
        let eng = Engine.prepare_exn ~config:Config.optimized g in
        let docs =
          Array.init 64 (fun i ->
              let doc = Grammars.Corpus.json (Rng.create (1000 + i)) ~size:200 in
              if i mod 8 = 7 then String.sub doc 0 (String.length doc / 2)
              else doc)
        in
        let render = function
          | Ok v -> Ok v
          | Error e -> Error (Parse_error.message e)
        in
        let want = Array.map (fun doc -> render (Engine.parse eng doc)) docs in
        let same a b =
          match (a, b) with
          | Ok a, Ok b -> Value.equal a b
          | Error a, Error b -> String.equal a b
          | _ -> false
        in
        let domains =
          List.init 4 (fun d ->
              Domain.spawn (fun () ->
                  let rng = Rng.create (2000 + d) in
                  let bad = ref 0 in
                  for _ = 0 to 3000 do
                    let i = Rng.int rng (Array.length docs) in
                    if not (same want.(i) (render (Engine.parse eng docs.(i))))
                    then incr bad
                  done;
                  !bad))
        in
        let bad = List.fold_left (fun n d -> n + Domain.join d) 0 domains in
        check Alcotest.int "results that differ from a sequential parse" 0 bad);
    test "four domains race the first calls of a freshly prepared engine" (fun () ->
        (* Every body compiles on its first call, so domains that start
           together on an engine nobody has run compile its bodies
           concurrently. MiniC is stateful and has predicates; a share
           of the documents of both grammars is truncated, so errors
           are built while other domains still compile. *)
        let truncate i doc =
          if i mod 3 = 2 then String.sub doc 0 (String.length doc * 2 / 3) else doc
        in
        let minic =
          ( "MiniC",
            Pipeline.optimize (Grammars.Minic.grammar ()),
            Array.init 12 (fun i ->
                truncate i (Grammars.Corpus.minic (Rng.create (300 + i)) ~functions:2)) )
        and json =
          ( "JSON",
            Pipeline.optimize (Grammars.Json.grammar ()),
            Array.init 12 (fun i ->
                truncate i (Grammars.Corpus.json (Rng.create (400 + i)) ~size:300)) )
        in
        let render (o : Engine.outcome) =
          ( (match o.result with
            | Ok v -> Value.to_string v
            | Error e -> "error: " ^ Parse_error.to_string e),
            Stats.to_json o.stats )
        in
        List.iter
          (fun (name, g, docs) ->
            let reference = Engine.prepare_exn ~config:Config.optimized g in
            let want = Array.map (fun doc -> render (Engine.run reference doc)) docs in
            let n = Array.length docs in
            for round = 0 to 7 do
              let eng = Engine.prepare_exn ~config:Config.optimized g in
              let ready = Atomic.make 0 in
              let domains =
                List.init 4 (fun d ->
                    Domain.spawn (fun () ->
                        Atomic.incr ready;
                        while Atomic.get ready < 4 do
                          Domain.cpu_relax ()
                        done;
                        (* each domain its own order, so first calls
                           reach different bodies at once *)
                        List.filter
                          (fun k ->
                            let i = ((k * (2 * d + 1)) + round + d) mod n in
                            render (Engine.run eng docs.(i)) <> want.(i))
                          (List.init n Fun.id)
                        |> List.length))
              in
              let bad = List.fold_left (fun k d -> k + Domain.join d) 0 domains in
              check Alcotest.int
                (Printf.sprintf "%s round %d: runs that differ from a sequential engine"
                   name round)
                0 bad
            done)
          [ minic; json ]);
  ]

(* --- the run spec: budgets per run, one slice loop, the mode rule ------- *)

let deadline_tests =
  let demo200 () =
    let demo = In_channel.with_open_bin "data/demo.java" In_channel.input_all in
    String.concat "" (List.init 200 (fun _ -> demo))
  in
  let minijava ?(config = Config.optimized) () =
    Engine.prepare_exn ~config (Pipeline.optimize (Grammars.Minijava.grammar ()))
  in
  [
    test "with_limits shares the compiled engine and its observation" (fun () ->
        let eng =
          minijava
            ~config:(Config.with_observe { Observe.off with Observe.profile = true } Config.optimized)
            ()
        in
        let capped = Engine.with_limits eng (Limits.v ~fuel:10 ()) in
        check Alcotest.bool "same sink" true
          (Engine.observation eng == Engine.observation capped);
        check Alcotest.int "same slots" (Engine.memo_slots eng) (Engine.memo_slots capped);
        let demo = In_channel.with_open_bin "data/demo.java" In_channel.input_all in
        (match (Engine.run capped demo).Engine.result with
        | Error e ->
            check Alcotest.bool "the copy's budget" true
              (Parse_error.exhausted_which e = Some Limits.Fuel)
        | Ok _ -> Alcotest.fail "fuel 10 should trip");
        check Alcotest.bool "the original's budget" true
          (Result.is_ok (Engine.run eng demo).Engine.result));
    test "a deadline over three slices answers like one run" (fun () ->
        let eng = minijava () and text = demo200 () in
        let cold = Engine.run eng text in
        let slices = ref [] in
        let out, expired =
          Engine.with_deadline ~now_ns:(fun () -> 0) ~deadline_ns:1 eng (fun e ->
              let o = Engine.run e text in
              slices := (Engine.config e).Config.limits.Limits.fuel :: !slices;
              o)
        in
        check Alcotest.bool "not expired" false expired;
        check (Alcotest.list Alcotest.int) "slices" [ 262_144; 131_072; 65_536 ] !slices;
        check Alcotest.string "same stats" (Stats.to_json cold.Engine.stats)
          (Stats.to_json out.Engine.stats);
        match (cold.Engine.result, out.Engine.result) with
        | Ok a, Ok b -> check Alcotest.bool "same tree" true (Value.equal a b)
        | _ -> Alcotest.fail "demo.java x200 should parse");
    test "an expired deadline returns the slice's fuel trip" (fun () ->
        let eng = minijava () in
        let out, expired =
          Engine.with_deadline ~now_ns:(fun () -> 2) ~deadline_ns:1 eng (fun e ->
              Engine.run e (demo200 ()))
        in
        check Alcotest.bool "expired" true expired;
        check Alcotest.int "one slice" 65_536 out.Engine.stats.Stats.fuel_used);
    test "a fuel budget under the slice trips as fuel, never expires" (fun () ->
        let eng = Engine.with_limits (minijava ()) (Limits.v ~fuel:1_000 ()) in
        let out, expired =
          Engine.with_deadline ~now_ns:(fun () -> 2) ~deadline_ns:1 eng (fun e ->
              Engine.run e (demo200 ()))
        in
        check Alcotest.bool "not expired" false expired;
        match out.Engine.result with
        | Error e ->
            check Alcotest.bool "fuel" true
              (Parse_error.exhausted_which e = Some Limits.Fuel)
        | Ok _ -> Alcotest.fail "fuel 1000 should trip");
  ]

(* The README's mode table, read back: one row per mode-specific flag of
   [rml parse], a mark per mode that accepts it, and the flags it
   excludes within a mode. *)
let readme_modes () =
  let ticked s = List.filteri (fun i _ -> i mod 2 = 1) (String.split_on_char '`' s) in
  let flag s = List.hd (String.split_on_char ' ' s) in
  In_channel.with_open_bin "../README.md" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char '|' line with
         | [ ""; name; doc; edits; batch; excludes; "" ]
           when String.starts_with ~prefix:"`-" (String.trim name) ->
             Some
               ( flag (List.hd (ticked name)),
                 List.map (fun c -> String.trim c <> "") [ doc; edits; batch ],
                 List.map flag (ticked excludes) )
         | _ -> None)

let mode_rule_tests =
  let set name ((g : Run.grammar), (f : Run.flags)) =
    match name with
    | "-i" -> (g, { f with input = Some "doc.txt" })
    | "--stdin" -> (g, { f with stdin = true })
    | "--mmap" -> (g, { f with mmap = true })
    | "--edits" -> (g, { f with edits = Some "script.txt" })
    | "--trace" -> (g, { f with trace = true })
    | "--profile" -> (g, { f with profile = true })
    | "--trace-ring" -> (g, { f with trace_ring = Some 8 })
    | "--timeout" -> (g, { f with timeout = Some 1. })
    | "--recognize" -> ({ g with recognize = true }, f)
    | "--stats" -> (g, { f with stats = true })
    | "--stats-json" -> (g, { f with stats_json = true })
    | "--batch" -> (g, { f with batch = Some "-" })
    | "--batch-sep" -> (g, { f with batch_sep = Some '\n' })
    | "--faults" -> (g, { f with faults = Some "seed=1,io@3" })
    | "--doc-timeout" -> (g, { f with doc_timeout = Some 1. })
    | "--metrics" -> (g, { f with metrics = Some "m.prom" })
    | "--trace-out" -> (g, { f with trace_out = Some "t.json" })
    | "--progress" -> (g, { f with progress = true })
    | other -> Alcotest.failf "the README names %s, which the test does not know" other
  in
  [
    test "every flag pair is accepted exactly when the README's table says" (fun () ->
        let rows = readme_modes () in
        check Alcotest.int "rows" 18 (List.length rows);
        let batch_only =
          List.filter_map
            (fun (n, modes, _) -> if modes = [ false; false; true ] && n <> "--batch" then Some n else None)
            rows
        in
        (* the least a command line adds to the pair: --batch for a
           batch-only flag, else an input file when the pair has none *)
        let complete names =
          if List.exists (fun n -> List.mem n batch_only) names && not (List.mem "--batch" names)
          then "--batch" :: names
          else if List.exists (fun n -> List.mem n [ "-i"; "--stdin"; "--batch" ]) names then names
          else "-i" :: names
        in
        let accepts (a, ma, xa) (b, mb, xb) =
          List.exists2 ( && ) ma mb && (not (List.mem b xa)) && not (List.mem a xb)
        in
        List.iter
          (fun ((a, _, _) as ra) ->
            List.iter
              (fun ((b, _, _) as rb) ->
                if a <= b then
                  let g, f =
                    List.fold_left (fun acc n -> set n acc) (Run.default, Run.no_flags)
                      (complete (List.sort_uniq compare [ a; b ]))
                  in
                  match Run.of_flags g f with
                  | r ->
                      check Alcotest.bool (a ^ " with " ^ b) (accepts ra rb) (Result.is_ok r)
                  | exception e ->
                      Alcotest.failf "%s with %s raised %s" a b (Printexc.to_string e))
              rows)
          rows);
  ]

let () =
  Alcotest.run "integration"
    [
      ("facade", facade_tests);
      ("extension-story", extension_story_tests);
      ("errors", error_report_tests);
      ("consistency", consistency_tests);
      ("snapshot", snapshot_tests);
      ("roundtrip", roundtrip_tests);
      ("parallel", parallel_tests);
      ("deadline", deadline_tests);
      ("mode-rule", mode_rule_tests);
    ]
