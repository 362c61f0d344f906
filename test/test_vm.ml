(* Unit tests for the bytecode back end: charset bitmaps, backtrack
   unwinding through state-table transactions, stats counters, and
   value equality against the closure engine on the builtin corpora.
   The broad randomized cross-check lives in test_props.ml. *)

open Rats

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let grammar_of prods = Grammar.make_exn prods

let vm_config cfg = Config.with_backend Config.Bytecode cfg

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let prepare_vm ?(config = Config.optimized) g =
  Vm.prepare_exn ~config:(vm_config config) g

(* --- charset bitmaps ------------------------------------------------------ *)

(* A class compiles to a 256-byte bitmap; every byte must be accepted
   exactly when the source charset contains it. *)
let bitmap_tests =
  let sets =
    [
      ("range", Charset.range 'a' 'f');
      ("union", Charset.union (Charset.range '0' '9') (Charset.singleton '_'));
      ( "complement",
        Charset.complement (Charset.union (Charset.singleton '\n')
             (Charset.range 'x' 'z')) );
      ("edges", Charset.union (Charset.singleton '\000') (Charset.singleton '\255'));
      ("full", Charset.full);
    ]
  in
  List.map
    (fun (name, set) ->
      test (Printf.sprintf "bitmap agrees with Charset.mem (%s)" name)
        (fun () ->
          let g = grammar_of [ Production.v "P0" (Expr.cls set) ] in
          let vm = prepare_vm g in
          for b = 0 to 255 do
            let c = Char.chr b in
            check Alcotest.bool
              (Printf.sprintf "byte %d" b)
              (Charset.mem c set)
              (Vm.accepts vm (String.make 1 c))
          done))
    sets

(* --- backtrack unwinding through state transactions ----------------------- *)

(* An alternative records a name into a state table and then fails; the
   backtrack must roll the table back so the later alternative does not
   see the phantom entry. The closure engine pins the expected result. *)
let unwind_tests =
  let name_ = Expr.plus (Expr.cls (Charset.range 'a' 'z')) in
  let g =
    grammar_of
      [
        Production.v "P0"
          (Expr.alt
             [
               (* record the name, then hit a dead end *)
               Expr.seq [ Expr.record "T" (Expr.token name_); Expr.fail "no" ];
               (* the name must NOT be in the table anymore *)
               Expr.seq
                 [
                   Expr.member "T" false (Expr.token name_);
                   Expr.str "!";
                 ];
             ]);
      ]
  in
  let deep =
    (* several nested choice points between the record and the failure,
       so unwinding has to pop through intermediate frames *)
    grammar_of
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
  let agree name g input =
    test name (fun () ->
        let closure = Engine.prepare_exn ~config:Config.optimized g in
        let vm = prepare_vm g in
        let a = Engine.parse closure input and b = Vm.parse vm input in
        (match (a, b) with
        | Ok va, Ok vb ->
            check Alcotest.bool "values equal" true (Value.equal va vb)
        | Error ea, Error eb ->
            check Alcotest.int "failure position" ea.Parse_error.position
              eb.Parse_error.position;
            check
              Alcotest.(list string)
              "expected sets" ea.Parse_error.expected eb.Parse_error.expected
        | _ -> Alcotest.failf "engines disagree on acceptance of %S" input))
  in
  [
    agree "record rolled back across a failed alternative" g "abc!";
    agree "rollback agrees on rejection too" g "abc";
    agree "unwinding pops through nested choices and loops" deep "abc--...x";
    agree "nested unwinding agrees on rejection" deep "abc--";
  ]

(* --- corpora value equality ----------------------------------------------- *)

let corpus_tests =
  let cases =
    [
      ( "calc",
        Grammars.Calc.grammar (),
        Grammars.Corpus.arith (Rng.create 7) ~size:400 );
      ( "json",
        Grammars.Json.grammar (),
        Grammars.Corpus.json (Rng.create 7) ~size:400 );
      ( "minic",
        Grammars.Minic.grammar (),
        Grammars.Corpus.minic (Rng.create 7) ~functions:4 );
    ]
  in
  List.concat_map
    (fun (name, g, corpus) ->
      let opt = Rats_optimize.Pipeline.optimize g in
      List.map
        (fun (cfg_name, cfg) ->
          test (Printf.sprintf "%s corpus values equal (%s)" name cfg_name)
            (fun () ->
              let closure = Engine.prepare_exn ~config:cfg opt in
              let vm = prepare_vm ~config:cfg opt in
              match (Engine.parse closure corpus, Vm.parse vm corpus) with
              | Ok va, Ok vb ->
                  check Alcotest.bool "equal trees" true (Value.equal va vb)
              | _ -> Alcotest.failf "%s corpus rejected" name))
        [
          ("optimized", Config.optimized);
          ("packrat", Config.packrat);
          ("no memo", Config.naive);
        ])
    cases

(* --- span-including tree equality ------------------------------------------ *)

(* [Value.equal] ignores spans; these checks compare whole trees, spans
   included, with structural equality. *)

(* The first document of at least [target] bytes the closure engine
   accepts: scale [k] doubles until the size is reached, then the seed
   moves past generator outputs the grammar rejects. *)
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
        Printf.bprintf b "N%d:%s@%d-%d/%d" (String.length n.Value.name)
          n.Value.name (Span.start n.Value.span) (Span.stop n.Value.span)
          (List.length n.Value.children);
        List.iter
          (fun (l, v) ->
            (match l with
            | None -> Buffer.add_char b '-'
            | Some l -> Printf.bprintf b "+%d:%s" (String.length l) l);
            go v)
          n.Value.children
  in
  go v;
  Digest.to_hex (Digest.string (Buffer.contents b))

let span_tests =
  [
    test "closure = vm with spans, five grammars, 1 KB to 128 KB" (fun () ->
        List.iter
          (fun (name, g, make) ->
            let opt = Rats_optimize.Pipeline.optimize g in
            let closure = Engine.prepare_exn opt in
            let vm = prepare_vm opt in
            List.iter
              (fun kb ->
                let doc = sized_doc closure make (kb * 1024) in
                match (Engine.parse closure doc, Vm.parse vm doc) with
                | Ok va, Ok vb ->
                    check Alcotest.bool
                      (Printf.sprintf "%s %d KB" name kb)
                      true (va = vb)
                | _ -> Alcotest.failf "%s %d KB rejected" name kb)
              [ 1; 16; 128 ])
          five_grammars);
    (* Digests recorded before node construction was fused into the
       sequence builders: the fused paths must reproduce every span. *)
    test "demo trees keep their spans" (fun () ->
        List.iter
          (fun (file, g, expected) ->
            let opt = Rats_optimize.Pipeline.optimize g in
            let doc = In_channel.with_open_bin file In_channel.input_all in
            List.iter
              (fun (backend, parse) ->
                match parse opt doc with
                | Ok v ->
                    check Alcotest.string
                      (Printf.sprintf "%s (%s)" file backend)
                      expected (span_digest v)
                | Error _ -> Alcotest.failf "%s rejected" file)
              [
                ("closure", fun g doc -> Engine.parse (Engine.prepare_exn g) doc);
                ("vm", fun g doc -> Vm.parse (prepare_vm g) doc);
              ])
          [
            ( "data/demo.java",
              Grammars.Minijava.grammar (),
              "de8db2aa6e44c6eadf1f2359ab1e274a" );
            ( "data/demo.c",
              Grammars.Minic.grammar (),
              "4a4660b4df62f9445ac4d16010da7e36" );
          ]);
  ]

(* --- stats and disassembly ------------------------------------------------ *)

let stats_tests =
  [
    test "vm_instructions and vm_stack_peak are reported" (fun () ->
        let g = Grammars.Calc.grammar () in
        let vm = prepare_vm (Rats_optimize.Pipeline.optimize g) in
        let o = Vm.run vm "1+2*(3-4)" in
        check Alcotest.bool "parses" true (Result.is_ok o.Vm.result);
        check Alcotest.bool "instructions counted" true
          (o.Vm.stats.Stats.vm_instructions > 0);
        check Alcotest.bool "stack peak recorded" true
          (o.Vm.stats.Stats.vm_stack_peak > 0);
        check Alcotest.int "consumed everything" 9 o.Vm.consumed);
    test "disassembly lists every production" (fun () ->
        let g =
          grammar_of
            [
              Production.v "P0" (Expr.seq [ Expr.ref_ "P1"; Expr.chr '!' ]);
              Production.v "P1" (Expr.star (Expr.cls (Charset.range 'a' 'z')));
            ]
        in
        let vm = prepare_vm g in
        let listing = Vm.disassemble vm in
        check Alcotest.bool "nonempty" true (String.length listing > 0);
        List.iter
          (fun p ->
            check Alcotest.bool (p ^ " labeled") true (contains listing p))
          [ "P0"; "P1" ];
        check Alcotest.bool "program is measured" true
          (Vm.instruction_count vm > 0));
    test "expected sets are deduplicated" (fun () ->
        let g =
          grammar_of
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
        let cfg = Config.v ~memo:Config.No_memo () in
        let vm = Vm.prepare_exn ~config:(vm_config cfg) g in
        match Vm.parse vm "q" with
        | Ok _ -> Alcotest.fail "should not parse"
        | Error e ->
            let sorted = List.sort_uniq compare e.Parse_error.expected in
            check Alcotest.int "no duplicate entries"
              (List.length sorted)
              (List.length e.Parse_error.expected));
  ]

let () =
  Alcotest.run "vm"
    [
      ("bitmaps", bitmap_tests);
      ("unwinding", unwind_tests);
      ("corpora", corpus_tests);
      ("spans", span_tests);
      ("stats", stats_tests);
    ]
