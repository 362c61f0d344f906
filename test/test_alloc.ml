(* The lean-path allocation contract (DESIGN.md, "Memory
   architecture"): in recognizer mode no construct allocates, so
   steady-state bytes/parse is independent of input size. The probe's
   ladder isolates one construct per rung — a leak reintroduced in
   the engine fails here naming the construct, without waiting for
   the E9 bench gate. The measurements are [Gc.allocated_bytes] deltas
   over deterministic parses with warmed pools, so the numbers are
   exact, not sampled: this suite is noise-free by construction. *)

open Rats
module Probe = Rats_probe.Alloc_probe

let sizes = [ 4_000; 16_000; 64_000 ]

let pp_rows rows =
  String.concat ", "
    (List.map (fun (b, a) -> Printf.sprintf "%d:%.0f" b a) rows)

(* Each contract is checked ungoverned and under the hardened resource
   governor, whose fuel and depth accounting must not allocate either.
   The ungoverned checks carry no suffix. *)
let configs =
  [
    ("", Config.optimized);
    (" (governed)", Config.with_limits Limits.hardened Config.optimized);
  ]

let ladder_tests =
  List.concat_map
    (fun (suffix, config) ->
      List.map
        (fun (rung : Probe.rung) ->
          Alcotest.test_case
            (Printf.sprintf "%s is allocation-free%s" rung.Probe.r_name suffix)
            `Quick
            (fun () ->
              let rows = Probe.measure_rung ~config ~sizes rung in
              if not (Probe.flat rows) then
                Alcotest.failf "%s%s: lean-path allocation grows with input (%s)"
                  rung.Probe.r_name suffix (pp_rows rows)))
        (Probe.ladder ()))
    configs

(* The composed claim on real grammars: kind-erased calc and MiniJava
   (what [--recognize] and the degradation ladder run) parse seeded
   corpora grown 16x at constant bytes/parse. *)
let voidified_tests =
  List.concat_map
    (fun (suffix, config) ->
      List.map
        (fun (gname, grammar, corpus_at) ->
          Alcotest.test_case
            (Printf.sprintf "voidified %s is size-independent%s" gname suffix)
            `Quick
            (fun () ->
              let g = Pipeline.optimize (Probe.voidify grammar) in
              let eng = Engine.prepare_exn ~config g in
              let rows =
                List.map
                  (fun scale ->
                    let corpus = corpus_at scale in
                    ( String.length corpus,
                      Probe.bytes_per_parse eng (Input.of_string corpus) ))
                  [ 1; 4; 16 ]
              in
              if not (Probe.flat rows) then
                Alcotest.failf "voidified %s%s: allocation grows with input (%s)"
                  gname suffix (pp_rows rows)))
        [
          ( "calc",
            Grammars.Calc.grammar (),
            fun scale ->
              Grammars.Corpus.arith (Rng.create 7) ~size:(2_000 * scale) );
          ( "minijava",
            Grammars.Minijava.grammar (),
            fun scale ->
              Grammars.Corpus.minijava (Rng.create 7) ~classes:(3 * scale) );
        ])
    configs

(* The value-building contract: a full parse allocates the tree plus a
   bounded overhead, measured in bytes per input byte on fixed seeded
   documents. Each bound is the measured figure plus 10%, so a
   per-node intermediate reintroduced in the engine — such as a
   tuple node that a node wrapper unpacks again — fails here. *)
let floor_tests =
  (* A full parse keeps what it builds, and its [Gc.allocated_bytes]
     delta moved by up to 40% when nothing but the allocation before
     the measurement changed; the minor-word count did not move. Every
     value the engines build is small enough for the minor heap, so
     minor words count them all. *)
  let full_bytes_per_byte eng doc =
    let input = Input.of_string doc in
    let parse () = ignore (Engine.run_input eng input) in
    parse ();
    parse ();
    let runs = 4 in
    let w0 = Gc.minor_words () in
    for _ = 1 to runs do
      parse ()
    done;
    (Gc.minor_words () -. w0)
    *. float (Sys.word_size / 8)
    /. float runs
    /. float (String.length doc)
  in
  let docs =
    [
      ( "calc",
        Grammars.Calc.grammar (),
        Grammars.Corpus.arith (Rng.create 7) ~size:4_000,
        90. );
      ( "json",
        Grammars.Json.grammar (),
        "["
        ^ String.concat ", "
            (List.init 40 (fun i ->
                 Grammars.Corpus.json (Rng.create (7 + i)) ~size:40))
        ^ "]",
        29. );
      ( "minijava",
        Grammars.Minijava.grammar (),
        Grammars.Corpus.minijava (Rng.create 8) ~classes:16,
        119. );
    ]
  in
  List.concat_map
    (fun (suffix, config) ->
      List.map
        (fun (gname, grammar, doc, bound) ->
          Alcotest.test_case
            (Printf.sprintf "full-value %s allocates <= %.0f B per input byte%s"
               gname bound suffix)
            `Quick
            (fun () ->
              let eng = Engine.prepare_exn ~config (Pipeline.optimize grammar) in
              let per_byte = full_bytes_per_byte eng doc in
              if per_byte > bound then
                Alcotest.failf
                  "%s%s: %.1f B per input byte (%d B document), bound %.0f"
                  gname suffix per_byte (String.length doc) bound))
        docs)
    configs

(* The compile-side contract: the IR layers allocate what they return.
   A cold [rml parse -O] runs meta, resolve, optimize and prepare
   before it parses a byte, and compiles the bodies it calls while it
   parses, so the minor words of that chain, with every body compiled
   ([Engine.compile_all], as gen.exe compiles them), bound the cold
   start's allocation; each bound is the measured figure plus 10%.
   A traversal that allocates per node again — a closure or a ref in
   [Expr.fold], a table per [Expr.refs] call — or a pass that rebuilds
   what it does not change fails here. The chain runs once before it
   is measured, so that caches made on first use (single-byte charsets)
   are not counted. The observed cases prepare under every observation
   facility: one grammar is compiled the same way whether or not it is
   observed, so a prepare that copies the grammar for observation, or
   names every choice arm up front, fails here. *)
let compile_tests =
  let ok what = function
    | Ok v -> v
    | Error ds ->
        Alcotest.failf "%s: %s" what
          (String.concat "; " (List.map Diagnostic.to_string ds))
  in
  let compile config texts root () =
    let modules =
      List.concat_map (fun t -> ok "meta" (modules_of_string t)) texts
    in
    let g = ok "resolve" (compose ~root modules) in
    let g = Pipeline.optimize g in
    Engine.compile_all (Engine.prepare_exn ~config g)
  in
  let observed = Config.with_observe (Observe.all ()) Config.optimized in
  List.map
    (fun (gname, config, texts, root, bound) ->
      Alcotest.test_case
        (Printf.sprintf "%s compile allocates <= %d minor words" gname bound)
        `Quick
        (fun () ->
          let run = compile config texts root in
          run ();
          let w0 = Gc.minor_words () in
          run ();
          let words = Gc.minor_words () -. w0 in
          if words > float bound then
            Alcotest.failf "%s: meta through prepare allocated %.0f minor words, bound %d"
              gname words bound))
    [
      ("MiniC", Config.optimized, Grammars.Minic.texts, "c.Program", 258_000);
      ( "MiniJava",
        Config.optimized,
        Grammars.Minijava.texts,
        "j.Program",
        205_000 );
      ("observed MiniC", observed, Grammars.Minic.texts, "c.Program", 265_000);
      ( "observed MiniJava",
        observed,
        Grammars.Minijava.texts,
        "j.Program",
        211_000 );
    ]

(* Farthest-failure recording runs on every failing terminal and every
   dispatch-skipped alternative, so it must not allocate at all. *)
let record_tests =
  [
    Alcotest.test_case "Expected.record allocates nothing" `Quick (fun () ->
        let names = Expected.names () in
        let ids =
          Array.init 40 (fun i ->
              Expected.intern names (Printf.sprintf "d%02d" i))
        in
        let t = Expected.create names in
        let w0 = Gc.minor_words () in
        (* every third record advances, the others land on the farthest
           position or below it *)
        for i = 0 to 99_999 do
          let pos = (i / 3) + ((i mod 3) - 1) in
          Expected.record t (max pos 0) ids.(i mod 40)
        done;
        let words = Gc.minor_words () -. w0 in
        if words <> 0. then
          Alcotest.failf "100k records allocated %.0f minor words" words);
  ]

let () =
  Alcotest.run "alloc"
    [
      ("lean-ladder", ladder_tests);
      ("voidified", voidified_tests);
      ("full-value", floor_tests);
      ("compile", compile_tests);
      ("expected", record_tests);
    ]
