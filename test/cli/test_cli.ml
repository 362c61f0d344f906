(* Black-box CLI tests: run the built rml binary the way a user would.
   Paths are relative to the build sandbox, where dune materializes the
   declared dependencies. *)

let rml = "../../bin/rml.exe"
let tutorial = "../../grammars/tutorial.rats"

let run_cmd cmd =
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code = match status with Unix.WEXITED n -> n | _ -> 255 in
  (code, Buffer.contents buf)

let run args = run_cmd (Printf.sprintf "%s %s 2>&1" rml args)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let write_temp contents =
  let path = Filename.temp_file "rml_cli" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  path

(* Feed [contents] to the command on standard input (via a temp file so
   the shell does the piping). *)
let run_with_stdin contents args =
  let f = write_temp contents in
  let r = run_cmd (Printf.sprintf "%s %s < %s 2>&1" rml args f) in
  Sys.remove f;
  r

let tests =
  [
    test "parse --help prints no cmdliner error" (fun () ->
        let err = Filename.temp_file "rml_cli" ".err" in
        let code, out =
          run_cmd (Printf.sprintf "%s parse --help=plain 2>%s" rml err)
        in
        let stderr = In_channel.with_open_bin err In_channel.input_all in
        Sys.remove err;
        check Alcotest.int "exit" 0 code;
        check Alcotest.string "stderr" "" stderr;
        check Alcotest.bool "faults doc keeps its @" true
          (contains out "trunc@K"));
    test "analyze a grammar file" (fun () ->
        let code, out = run (Printf.sprintf "analyze %s -r tutorial.Ini" tutorial) in
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "well-formed" true (contains out "well-formed:      yes"));
    test "parse an input file" (fun () ->
        let ini = write_temp "[a]\nx = 1\n" in
        let code, out =
          run (Printf.sprintf "parse %s -r tutorial.Ini -i %s" tutorial ini)
        in
        Sys.remove ini;
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "tree" true (contains out "(Pair key:\"x\""));
    test "parse errors exit nonzero with a located message" (fun () ->
        let ini = write_temp "[a\n" in
        let code, out =
          run (Printf.sprintf "parse %s -r tutorial.Ini -i %s" tutorial ini)
        in
        Sys.remove ini;
        check Alcotest.int "exit" 3 code;
        check Alcotest.bool "caret" true (String.contains out '^'));
    test "compose prints a reparsable grammar" (fun () ->
        let code, out =
          run (Printf.sprintf "compose %s -r tutorial.Ini" tutorial)
        in
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "start" true (contains out "// start: Ini"));
    test "--help lists the subcommands, without generate" (fun () ->
        let code, out = run "--help=plain" in
        check Alcotest.int "exit" 0 code;
        List.iter
          (fun cmd -> check Alcotest.bool cmd true (contains out ("\n       " ^ cmd ^ " ")))
          [ "analyze"; "compose"; "fmt"; "optimize"; "parse"; "trace" ];
        check Alcotest.bool "no generate" false (contains out "generate"));
    test "builtin grammars work end to end" (fun () ->
        let expr = write_temp "1 + 2 * 3" in
        let code, out = run (Printf.sprintf "parse -b calc -i %s --stats" expr) in
        Sys.remove expr;
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "stats" true (contains out "invocations="));
    test "the removed engine selection is a usage error" (fun () ->
        let expr = write_temp "1 + 2 * 3" in
        let code, _ = run (Printf.sprintf "parse -b calc -i %s -e vm" expr) in
        let code', _ = run (Printf.sprintf "parse -b calc -i %s -c vm" expr) in
        let code'', _ = run "bytecode -b calc" in
        Sys.remove expr;
        check Alcotest.int "-e vm" 2 code;
        check Alcotest.int "-c vm" 2 code';
        check Alcotest.int "bytecode" 2 code'');
    test "fmt round-trips the tutorial" (fun () ->
        let code, out = run (Printf.sprintf "fmt %s" tutorial) in
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "modules" true (contains out "module tutorial.Ini"));
    test "modules --dot emits graphviz" (fun () ->
        let code, out = run "modules -b minic-ext --dot" in
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "digraph" true (contains out "digraph modules");
        check Alcotest.bool "modify edge" true (contains out "modify"));
    test "parse --trace prints nested events" (fun () ->
        let expr = write_temp "1+2" in
        let code, out =
          run (Printf.sprintf "parse -b calc -i %s -q --trace -c packrat" expr)
        in
        Sys.remove expr;
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "enter" true (contains out "> Sum @0");
        check Alcotest.bool "exit event" true (contains out "< Sum @0"));
    test "unknown builtin is a clean error" (fun () ->
        let code, out = run "analyze -b nonsense" in
        check Alcotest.int "exit" 3 code;
        check Alcotest.bool "message" true (contains out "unknown built-in"));
    test "usage errors exit 2" (fun () ->
        let code, _ = run "parse -b calc --no-such-flag" in
        check Alcotest.int "exit" 2 code;
        let code, _ = run "parse -b calc" in
        (* --input is required *)
        check Alcotest.int "missing input" 2 code);
    test "missing input file exits 3, not a crash" (fun () ->
        let code, out = run "parse -b calc -i /no/such/file" in
        check Alcotest.int "exit" 3 code;
        check Alcotest.bool "message" true (contains out "/no/such/file"));
    test "--fuel exhaustion exits 4" (fun () ->
        let expr = write_temp "1+1+1+1+1+1+1+1" in
        let code, out =
          run (Printf.sprintf "parse -b calc -i %s --fuel 10" expr)
        in
        Sys.remove expr;
        check Alcotest.int "exit" 4 code;
        check Alcotest.bool "message" true (contains out "fuel"));
    test "--max-depth exhaustion exits 4" (fun () ->
        let expr =
          write_temp (String.make 100 '(' ^ "1" ^ String.make 100 ')')
        in
        let code, out =
          run (Printf.sprintf "parse -b calc -i %s --max-depth 16" expr)
        in
        Sys.remove expr;
        check Alcotest.int "exit" 4 code;
        check Alcotest.bool "message" true (contains out "depth"));
    test "--max-memo degrades but still succeeds" (fun () ->
        let expr = write_temp "1+2*3" in
        let code, out =
          run
            (Printf.sprintf
               "parse -b calc -i %s -q -c packrat --max-memo 1 --stats" expr)
        in
        Sys.remove expr;
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "degraded counted" true
          (contains out "memo-degraded="));
    test "--timeout exits 4 when exceeded, 0 when roomy" (fun () ->
        let expr = write_temp ("1" ^ String.concat "" (List.init 20_000 (fun _ -> "+1"))) in
        let code, out =
          run (Printf.sprintf "parse -b calc -i %s -q --timeout 0.000001" expr)
        in
        let code', _ =
          run (Printf.sprintf "parse -b calc -i %s -q --timeout 60" expr)
        in
        Sys.remove expr;
        check Alcotest.int "tiny timeout" 4 code;
        check Alcotest.bool "message" true (contains out "timeout");
        check Alcotest.int "roomy timeout" 0 code');
    test "--timeout over several fuel slices changes no output" (fun () ->
        (* 185,602 invocations: the 65,536 and 131,072 slices trip, the
           262,144 one finishes *)
        let demo = In_channel.with_open_bin "../data/demo.java" In_channel.input_all in
        let big = write_temp (String.concat "" (List.init 200 (fun _ -> demo))) in
        let parse extra =
          let out = Filename.temp_file "rml_cli" ".out" in
          let err = Filename.temp_file "rml_cli" ".err" in
          let code, _ =
            run_cmd
              (Printf.sprintf "%s parse -O -b minijava -i %s --stats%s > %s 2> %s"
                 rml big extra out err)
          in
          let read f =
            let s = In_channel.with_open_bin f In_channel.input_all in
            Sys.remove f;
            s
          in
          (code, read out, read err)
        in
        let code, out, err = parse "" in
        let code', out', err' = parse " --timeout 60" in
        Sys.remove big;
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "three slices' worth" true
          (contains out "invocations=185602");
        check Alcotest.int "same exit" code code';
        check Alcotest.string "same stdout" out out';
        check Alcotest.string "same stderr" err err');
    test "--fuel with --timeout honors the smaller budget" (fun () ->
        (* A small explicit fuel budget must trip — and be reported as a
           fuel trip, exit 4 — even under a generous timeout: the
           timeout's fuel-slice polling never exceeds --fuel. *)
        let expr = write_temp "1+1+1+1+1+1+1+1" in
        let code, out =
          run (Printf.sprintf "parse -b calc -i %s --fuel 10 --timeout 60" expr)
        in
        Sys.remove expr;
        check Alcotest.int "exit" 4 code;
        check Alcotest.bool "fuel trip" true (contains out "fuel");
        check Alcotest.bool "not a timeout" false (contains out "timeout"));
    test "--edits replays a script incrementally" (fun () ->
        let expr = write_temp "1 + 2 * (3 - 4)" in
        let script =
          write_temp "# touch the 2, then collapse the group\n4 1 42\n9 7 7\n"
        in
        let code, out =
          run
            (Printf.sprintf "parse -b calc -i %s --edits %s --stats" expr
               script)
        in
        Sys.remove expr;
        Sys.remove script;
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "initial parse" true (contains out "initial: ok");
        check Alcotest.bool "per-edit status" true (contains out "edit 2: ok");
        check Alcotest.bool "reuse reported" true (contains out "reused=");
        check Alcotest.bool "reuse in stats" true (contains out "memo-reused=");
        check Alcotest.bool "final tree" true (contains out "(Num \"42\")"));
    test "--edits reaching an invalid buffer exits 3 with a located error"
      (fun () ->
        let expr = write_temp "1+2" in
        let script = write_temp "1 2 +\n" in
        let code, out =
          run (Printf.sprintf "parse -b calc -i %s --edits %s -q" expr script)
        in
        Sys.remove expr;
        Sys.remove script;
        check Alcotest.int "exit" 3 code;
        check Alcotest.bool "edit reported failing" true
          (contains out "edit 1: expected");
        check Alcotest.bool "caret" true (String.contains out '^'));
    test "--edits rejects malformed scripts with exit 2" (fun () ->
        let expr = write_temp "1+2" in
        let script = write_temp "nonsense line\n" in
        let code, out =
          run (Printf.sprintf "parse -b calc -i %s --edits %s -q" expr script)
        in
        let script' = write_temp "0 99 x\n" in
        let code', _ =
          run (Printf.sprintf "parse -b calc -i %s --edits %s -q" expr script')
        in
        Sys.remove expr;
        Sys.remove script;
        Sys.remove script';
        check Alcotest.int "unparsable line" 2 code;
        check Alcotest.bool "message" true (contains out "bad edit");
        check Alcotest.int "out-of-bounds edit" 2 code');
    test "profile prints a table and writes a speedscope flamegraph"
      (fun () ->
        let expr = write_temp "1 + 2 * 3" in
        let flame = Filename.temp_file "rml_cli" ".json" in
        let code, out =
          run
            (Printf.sprintf "profile -b calc -i %s --top 5 --flame %s" expr
               flame)
        in
        let json = In_channel.with_open_bin flame In_channel.input_all in
        Sys.remove expr;
        Sys.remove flame;
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "header" true (contains out "production");
        check Alcotest.bool "rows" true (contains out "Number");
        check Alcotest.bool "wrote" true (contains out "rml: wrote");
        check Alcotest.bool "speedscope schema" true
          (contains json "speedscope.app/file-format-schema.json");
        check Alcotest.bool "frames" true (contains json "\"frames\""));
    test "profile on a failing parse still reports, exit 3" (fun () ->
        let expr = write_temp "1+" in
        let code, out = run (Printf.sprintf "profile -b calc -i %s" expr) in
        Sys.remove expr;
        check Alcotest.int "exit" 3 code;
        check Alcotest.bool "error located" true (String.contains out '^');
        check Alcotest.bool "table anyway" true (contains out "production"));
    test "trace renders ring events with positions" (fun () ->
        let expr = write_temp "1 + 2 * 3" in
        let code, out =
          run (Printf.sprintf "trace -b calc -i %s --last 6" expr)
        in
        Sys.remove expr;
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "bounded" true (contains out "earlier events");
        check Alcotest.bool "exit-ok" true (contains out "exit-ok");
        check Alcotest.bool "line:col" true (contains out "(1:1)"));
    test "coverage reports unexercised alternatives, --strict exits 1"
      (fun () ->
        let expr = write_temp "1 + 2 * 3" in
        let code, out = run (Printf.sprintf "coverage -b calc -i %s" expr) in
        let code', _ =
          run (Printf.sprintf "coverage -b calc -i %s --strict" expr)
        in
        Sys.remove expr;
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "summary" true
          (contains out "productions exercised: 9/9");
        check Alcotest.bool "dead arm flagged" true
          (contains out "unexercised alternative");
        check Alcotest.bool "defining module" true
          (contains out "[module calc.");
        check Alcotest.int "strict" 1 code');
    test "--stdin and '-i -' parse standard input" (fun () ->
        let code, out = run_with_stdin "1 + 2 * 3" "parse -b calc --stdin" in
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "tree" true (contains out "(Num \"1\")");
        let code', out' = run_with_stdin "1 + 2 * 3" "parse -b calc -i -" in
        check Alcotest.int "dash exit" 0 code';
        check Alcotest.bool "same tree" true
          (String.trim out = String.trim out'));
    test "--stdin failures are located in <stdin>" (fun () ->
        let code, out = run_with_stdin "1+" "parse -b calc --stdin" in
        check Alcotest.int "exit" 3 code;
        check Alcotest.bool "named" true (contains out "<stdin>");
        check Alcotest.bool "caret" true (String.contains out '^'));
    test "--mmap output is byte-identical to the copying path" (fun () ->
        let expr = write_temp "1 + 2 * 3" in
        let code, out = run (Printf.sprintf "parse -b calc -i %s --stats" expr) in
        let code', out' =
          run (Printf.sprintf "parse -b calc -i %s --mmap --stats" expr)
        in
        Sys.remove expr;
        check Alcotest.int "copy exit" 0 code;
        check Alcotest.int "mmap exit" 0 code';
        check Alcotest.bool "identical output incl. stats" true (out = out'));
    test "--mmap failures carry a caret into the mapped file" (fun () ->
        let bad = write_temp "1 + 2 *" in
        let code, out = run (Printf.sprintf "parse -b calc -i %s --mmap" bad) in
        Sys.remove bad;
        check Alcotest.int "exit" 3 code;
        check Alcotest.bool "caret" true (String.contains out '^'));
    test "--mmap with --stdin is a usage error" (fun () ->
        let code, _ = run "parse -b calc --stdin --mmap" in
        check Alcotest.int "exit" 2 code;
        let code', _ = run_with_stdin "1" "parse -b calc -i - --mmap" in
        check Alcotest.int "dash exit" 2 code');
    test "--mmap --edits copies on write and keeps memo reuse" (fun () ->
        let expr = write_temp "1 + 2 * (3 - 4)" in
        let script = write_temp "4 1 42\n9 7 7\n" in
        let code, out =
          run
            (Printf.sprintf "parse -b calc -i %s --mmap --edits %s --stats"
               expr script)
        in
        Sys.remove expr;
        Sys.remove script;
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "edits replay" true (contains out "edit 2: ok");
        check Alcotest.bool "reuse survives the copy" true
          (contains out "reused=");
        check Alcotest.bool "final tree" true (contains out "(Num \"42\")"));
    test "parse --profile and --trace-ring ride along" (fun () ->
        let expr = write_temp "1+2" in
        let bad = write_temp "1+" in
        let code, out =
          run (Printf.sprintf "parse -b calc -i %s -q --profile" expr)
        in
        let code', out' =
          run (Printf.sprintf "parse -b calc -i %s -q --trace-ring 8" bad)
        in
        Sys.remove expr;
        Sys.remove bad;
        check Alcotest.int "exit" 0 code;
        check Alcotest.bool "table" true (contains out "production");
        check Alcotest.int "failing exit" 3 code';
        check Alcotest.bool "ring dumped on failure" true
          (contains out' "exit-fail"));
    test "--passes and --dump-after reject a pass the run lacks alike" (fun () ->
        let code, passes = run "optimize -b calc --passes nosuch" in
        let code', dump = run "optimize -b calc --dump-after nosuch" in
        check Alcotest.int "--passes" 3 code;
        check Alcotest.int "--dump-after" 3 code';
        check Alcotest.string "same diagnostic" passes dump;
        check Alcotest.bool "names the pass" true
          (contains dump "unknown pass \"nosuch\"");
        let code, _ = run "optimize -b calc --passes inline --dump-after fold" in
        check Alcotest.int "registered but not run" 3 code;
        let code, out = run "optimize -b calc --passes inline,fold --dump-after fold" in
        check Alcotest.int "run" 0 code;
        check Alcotest.bool "dumped" true (contains out "; after fold"));
  ]

(* --- the exit-code contract, table-driven ------------------------------------

   One row per subcommand × failure class: 0 success, 1 coverage
   --strict's verdict, 2 usage, 3 syntax/io, 4 resource. Exit 5 (the
   internal backstop) has no CLI trigger short of an engine bug — the
   chaos suite in test_faults asserts it never fires, and the batch
   runner reserves it by construction. *)

let exit_matrix_tests =
  let with_fixtures f =
    let good = write_temp "1 + 2 * 3" in
    let bad = write_temp "1+" in
    let edits = write_temp "0 1 7\n" in
    Fun.protect
      ~finally:(fun () ->
        Sys.remove good;
        Sys.remove bad;
        Sys.remove edits)
      (fun () -> f ~good ~bad ~edits)
  in
  let matrix ~good ~bad ~edits =
    [
      (* subcommand, args, stdin payload, expected exit *)
      ("analyze ok", "analyze -b calc", None, 0);
      ("analyze usage", "analyze -b calc --no-such-flag", None, 2);
      ("analyze unknown builtin", "analyze -b nonsense", None, 3);
      ("parse ok", Printf.sprintf "parse -b calc -i %s" good, None, 0);
      ("parse usage: no input", "parse -b calc", None, 2);
      ("parse usage: bad flag", "parse -b calc --no-such-flag", None, 2);
      ("parse syntax", Printf.sprintf "parse -b calc -i %s" bad, None, 3);
      ("parse io", "parse -b calc -i /no/such/file", None, 3);
      ( "parse resource: fuel",
        Printf.sprintf "parse -b calc -i %s --fuel 3" good,
        None,
        4 );
      ( "parse resource: depth",
        Printf.sprintf "parse -b calc -i %s --max-depth 2" good,
        None,
        4 );
      ( "parse resource: input cap",
        "parse -b calc --stdin --max-input 4",
        Some "1+2*3+4",
        4 );
      ("compose ok", "compose -b calc", None, 0);
      ("compose usage", "compose -b calc --no-such-flag", None, 2);
      ("compose unknown builtin", "compose -b nonsense", None, 3);
      ("generate removed: usage", "generate -b calc", None, 2);
      ("optimize ok", "optimize -b calc", None, 0);
      ("optimize unknown pass: --passes", "optimize -b calc --passes nosuch", None, 3);
      ( "optimize unknown pass: --dump-after",
        "optimize -b calc --dump-after nosuch",
        None,
        3 );
      ("fmt ok", Printf.sprintf "fmt %s" tutorial, None, 0);
      ("fmt usage", "fmt --no-such-flag", None, 2);
      (* cmdliner validates positional file args itself, before the
         command runs: a missing grammar file is a usage error *)
      ("fmt missing file", "fmt /no/such/file.rats", None, 2);
      ("modules ok", "modules -b minic-ext", None, 0);
      ("modules usage", "modules -b calc --no-such-flag", None, 2);
      ("modules unknown builtin", "modules -b nonsense", None, 3);
      ("profile ok", Printf.sprintf "profile -b calc -i %s" good, None, 0);
      ("profile usage", "profile -b calc --no-such-flag", None, 2);
      ("profile syntax", Printf.sprintf "profile -b calc -i %s" bad, None, 3);
      ("trace ok", Printf.sprintf "trace -b calc -i %s" good, None, 0);
      ("trace usage", "trace -b calc --no-such-flag", None, 2);
      ("trace syntax", Printf.sprintf "trace -b calc -i %s" bad, None, 3);
      ("coverage ok", Printf.sprintf "coverage -b calc -i %s" good, None, 0);
      ( "coverage strict",
        Printf.sprintf "coverage -b calc -i %s --strict" good,
        None,
        1 );
      ("coverage usage", "coverage -b calc --no-such-flag", None, 2);
      (* a failing input is a corpus member, not an error: coverage
         reports it and exits 0 unless --strict asks for a verdict *)
      ("coverage syntax", Printf.sprintf "coverage -b calc -i %s" bad, None, 0);
      ( "coverage strict syntax",
        Printf.sprintf "coverage -b calc -i %s --strict" bad,
        None,
        1 );
      (* batch usage errors resolve before any parsing *)
      ( "batch usage: --stdin conflict",
        "parse -b calc --batch - --stdin",
        Some "",
        2 );
      ( "batch usage: --faults without --batch",
        Printf.sprintf "parse -b calc -i %s --faults seed=1" good,
        None,
        2 );
      ( "batch usage: bad --faults spec",
        "parse -b calc --batch - --faults zoom@3",
        Some "",
        2 );
      ( "batch usage: --doc-timeout without --batch",
        Printf.sprintf "parse -b calc -i %s --doc-timeout 1" good,
        None,
        2 );
      ( "batch usage: --batch-sep without --batch",
        Printf.sprintf "parse -b calc -i %s --batch-sep line" good,
        None,
        2 );
      ("batch usage: --stats with --batch", "parse -b calc --batch - --stats", Some "", 2);
      (* the mode rule: no flag is silently ignored *)
      ( "parse usage: --timeout with --edits",
        Printf.sprintf "parse -b calc -i %s --edits %s --timeout 1" good edits,
        None,
        2 );
      ( "parse usage: --timeout with --trace",
        Printf.sprintf "parse -b calc -i %s --trace --timeout 1" good,
        None,
        2 );
      ( "parse usage: --trace with --edits",
        Printf.sprintf "parse -b calc -i %s --edits %s --trace" good edits,
        None,
        2 );
      ( "parse usage: --profile with --trace",
        Printf.sprintf "parse -b calc -i %s --trace --profile" good,
        None,
        2 );
      ( "parse usage: --trace-ring with --trace",
        Printf.sprintf "parse -b calc -i %s --trace --trace-ring 8" good,
        None,
        2 );
    ]
  in
  [
    test "every subcommand honors the exit-code contract" (fun () ->
        with_fixtures (fun ~good ~bad ~edits ->
            List.iter
              (fun (name, args, stdin_payload, expected) ->
                let code, _ =
                  match stdin_payload with
                  | None -> run args
                  | Some payload -> run_with_stdin payload args
                in
                check Alcotest.int name expected code)
              (matrix ~good ~bad ~edits)));
  ]

(* --- the batch pipeline through the CLI -------------------------------------- *)

let count_json_lines out =
  List.length
    (List.filter
       (fun l -> String.length l > 0 && l.[0] = '{')
       (String.split_on_char '\n' out))

let batch_tests =
  [
    test "--batch manifest: one JSONL record per doc plus a summary" (fun () ->
        let good = write_temp "1+2*3" in
        let bad = write_temp "1+" in
        let manifest =
          write_temp
            (Printf.sprintf "# corpus\n%s\n%s\n/no/such/doc.txt\n" good bad)
        in
        let code, out = run (Printf.sprintf "parse -b calc --batch %s" manifest) in
        Sys.remove good;
        Sys.remove bad;
        Sys.remove manifest;
        check Alcotest.int "worst class is io/syntax: exit 3" 3 code;
        check Alcotest.int "3 records + summary" 4 (count_json_lines out);
        check Alcotest.bool "summary line" true (contains out "\"summary\":true");
        check Alcotest.bool "io record" true (contains out "\"kind\":\"io\"");
        check Alcotest.bool "syntax record" true
          (contains out "\"kind\":\"syntax\"");
        check Alcotest.bool "human summary on stderr" true
          (contains out "batch: 3 docs"));
    test "--batch - streams NUL-separated docs from stdin" (fun () ->
        let code, out =
          run_cmd
            (Printf.sprintf
               "printf '1+2\\0001+\\000' | %s parse -b calc --batch - 2>&1" rml)
        in
        check Alcotest.int "exit" 3 code;
        check Alcotest.int "2 records + summary" 3 (count_json_lines out));
    test "--batch - --batch-sep line streams newline-separated docs" (fun () ->
        let code, out =
          run_with_stdin "1+2\n1+\n2*3\n"
            "parse -b calc --batch - --batch-sep line"
        in
        check Alcotest.int "exit" 3 code;
        check Alcotest.int "3 records + summary" 4 (count_json_lines out);
        check Alcotest.bool "ok docs recorded" true
          (contains out "\"status\":\"ok\""));
    test "--batch all-good corpus exits 0" (fun () ->
        let code, out =
          run_with_stdin "1+2\n2*3\n" "parse -b calc --batch - --batch-sep line"
        in
        check Alcotest.int "exit" 0 code;
        check Alcotest.int "records" 3 (count_json_lines out));
    test "--batch enforces --max-input per document, exit 4" (fun () ->
        let code, out =
          run_with_stdin "1+2\n1+1+1+1+1+1+1+1\n"
            "parse -b calc --batch - --batch-sep line --max-input 8"
        in
        check Alcotest.int "exit" 4 code;
        check Alcotest.bool "input-cap record" true
          (contains out "\"which\":\"input\""));
    test "--batch --faults injects the plan deterministically" (fun () ->
        let code, out =
          run_with_stdin "1+2\n2*3\n"
            "parse -b calc --batch - --batch-sep line --faults io@0"
        in
        check Alcotest.int "exit" 3 code;
        check Alcotest.bool "injected io" true
          (contains out "injected I/O fault");
        (* the same plan at rate 0 injects nothing *)
        let code', out' =
          run_with_stdin "1+2\n2*3\n"
            "parse -b calc --batch - --batch-sep line --faults seed=1,rate=0.0,io@0"
        in
        check Alcotest.int "rate-0 exit" 0 code';
        check Alcotest.bool "no injection" false
          (contains out' "injected I/O fault"));
    test "--doc-timeout turns a stuck doc into a deadline record" (fun () ->
        let huge =
          "1" ^ String.concat "" (List.init 20_000 (fun _ -> "+1"))
        in
        let code, out =
          run_with_stdin
            (huge ^ "\n1+2\n")
            "parse -b calc --batch - --batch-sep line --doc-timeout 0.000001"
        in
        check Alcotest.int "exit" 4 code;
        check Alcotest.bool "deadline record" true
          (contains out "\"which\":\"deadline\"");
        check Alcotest.bool "later docs still run" true
          (contains out "\"status\":\"ok\""));
    test "--stdin caps an unbounded stream at --max-input, exit 4" (fun () ->
        let code, out =
          run_with_stdin
            ("1" ^ String.concat "" (List.init 100 (fun _ -> "+1")))
            "parse -b calc --stdin --max-input 16"
        in
        check Alcotest.int "exit" 4 code;
        check Alcotest.bool "cap named" true (contains out "16"));
  ]

(* --- telemetry: --metrics / --trace-out / --progress / --stats-json ----------

   The schema tests are the stability contract: the JSONL record,
   summary and --stats-json key sequences are pinned by name and order,
   so any field rename or reorder fails here before it breaks a
   downstream consumer. *)

(* Top-level keys of one JSON object, in order. Quoted values are
   skipped wholesale so a ':' inside an error message cannot fake a
   key. *)
let keys_of_json line =
  let n = String.length line in
  let rec scan_string i =
    (* [i] just past an opening quote; returns the index past the
       closing quote *)
    if i >= n then i
    else if line.[i] = '\\' then scan_string (i + 2)
    else if line.[i] = '"' then i + 1
    else scan_string (i + 1)
  in
  let rec go acc i =
    if i >= n then List.rev acc
    else if line.[i] = '"' then begin
      let j = scan_string (i + 1) in
      if j < n && line.[j] = ':' then
        let key = String.sub line (i + 1) (j - i - 2) in
        (* skip a quoted value so its innards are never scanned *)
        if j + 1 < n && line.[j + 1] = '"' then
          go (key :: acc) (scan_string (j + 2))
        else go (key :: acc) (j + 1)
      else go acc j
    end
    else go acc (i + 1)
  in
  go [] 0

(* Strip every wall-time value: the only fields that change from run to
   run under the real clock. What remains must be byte-identical. *)
let strip_times line =
  let n = String.length line in
  let b = Buffer.create n in
  let is_time_key k =
    k = "ms" || k = "p50_ms" || k = "p99_ms" || k = "total_ms"
  in
  let rec go i =
    if i >= n then ()
    else if line.[i] = '"' then begin
      let j = ref (i + 1) in
      while !j < n && line.[!j] <> '"' do
        if line.[!j] = '\\' then incr j;
        incr j
      done;
      let key = String.sub line (i + 1) (!j - i - 1) in
      Buffer.add_string b (String.sub line i (!j - i + 1));
      if !j + 1 < n && line.[!j + 1] = ':' && is_time_key key then begin
        Buffer.add_string b ":_";
        let k = ref (!j + 2) in
        while
          !k < n && (line.[!k] = '.' || (line.[!k] >= '0' && line.[!k] <= '9'))
        do
          incr k
        done;
        go !k
      end
      else go (!j + 1)
    end
    else begin
      Buffer.add_char b line.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let json_lines out =
  List.filter
    (fun l -> String.length l > 0 && l.[0] = '{')
    (String.split_on_char '\n' out)

let check_keys name expected line =
  check (Alcotest.list Alcotest.string) name expected (keys_of_json line)

let with_corpus f =
  let good = write_temp "1+2*3" in
  let bad = write_temp "1+" in
  let manifest = write_temp (Printf.sprintf "%s\n%s\n" good bad) in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove good;
      Sys.remove bad;
      Sys.remove manifest)
    (fun () -> f manifest)

let telemetry_tests =
  [
    test "--stats-json emits the pinned 12-field schema" (fun () ->
        let expr = write_temp "1 + 2 * 3" in
        let code, out =
          run (Printf.sprintf "parse -b calc -i %s -q --stats-json" expr)
        in
        Sys.remove expr;
        check Alcotest.int "exit" 0 code;
        let schema =
          [
            "invocations"; "hits"; "misses"; "stores"; "chunks"; "slots";
            "backtracks"; "snapshots"; "fuel-used"; "memo-degraded";
            "memo-reused"; "memo-relocated";
          ]
        in
        match json_lines out with
        | [ line ] -> check_keys "schema" schema line
        | ls -> Alcotest.failf "expected 1 JSON line, got %d" (List.length ls));
    test "--stats-json rides --edits: the final reparse's counters" (fun () ->
        let expr = write_temp "1 + 2 * (3 - 4)" in
        let script = write_temp "4 1 42\n" in
        let code, out =
          run
            (Printf.sprintf "parse -b calc -i %s --edits %s -q --stats-json"
               expr script)
        in
        Sys.remove expr;
        Sys.remove script;
        check Alcotest.int "exit" 0 code;
        match json_lines out with
        | [ line ] ->
            check Alcotest.bool "memo reuse surfaced" true
              (contains line "\"memo-reused\":9");
            check Alcotest.bool "relocations surfaced" true
              (contains line "\"memo-relocated\":7")
        | ls -> Alcotest.failf "expected 1 JSON line, got %d" (List.length ls));
    test "batch JSONL schemas are pinned, field for field" (fun () ->
        with_corpus (fun manifest ->
            let code, out =
              run (Printf.sprintf "parse -b calc --batch %s" manifest)
            in
            check Alcotest.int "exit" 3 code;
            match json_lines out with
            | [ ok_rec; fail_rec; summary ] ->
                check_keys "ok record"
                  [
                    "doc"; "name"; "bytes"; "status"; "rung"; "retried"; "ms";
                    "memo_degraded"; "fuel_used";
                  ]
                  ok_rec;
                check_keys "syntax record"
                  [
                    "doc"; "name"; "bytes"; "status"; "rung"; "retried";
                    "kind"; "position"; "message"; "ms"; "memo_degraded";
                    "fuel_used";
                  ]
                  fail_rec;
                check_keys "summary"
                  [
                    "summary"; "docs"; "ok"; "failed"; "degraded"; "rung_full";
                    "rung_recognizer"; "syntax"; "resource"; "io"; "internal";
                    "p50_ms"; "p99_ms"; "total_ms"; "memo_degraded";
                    "cold_fallbacks";
                  ]
                  summary
            | ls -> Alcotest.failf "expected 3 JSON lines, got %d" (List.length ls)));
    test "--metrics .prom: valid exposition reconciling with the run" (fun () ->
        with_corpus (fun manifest ->
            let prom = Filename.temp_file "rml_cli" ".prom" in
            let code, out =
              run
                (Printf.sprintf "parse -b calc --batch %s --metrics %s" manifest
                   prom)
            in
            let text = In_channel.with_open_bin prom In_channel.input_all in
            Sys.remove prom;
            check Alcotest.int "exit" 3 code;
            check Alcotest.bool "HELP first" true
              (String.length text > 6 && String.sub text 0 6 = "# HELP");
            check Alcotest.bool "docs ok series" true
              (contains text "rml_batch_docs_total{status=\"ok\"} 1");
            check Alcotest.bool "docs fail series" true
              (contains text "rml_batch_docs_total{status=\"fail\"} 1");
            check Alcotest.bool "latency count covers every record" true
              (contains text "rml_batch_doc_latency_us_count 2");
            check Alcotest.bool "+Inf closes the histogram" true
              (contains text "rml_batch_doc_latency_us_bucket{le=\"+Inf\"} 2");
            (* counters reconcile with the JSONL summary on stdout *)
            check Alcotest.bool "summary agrees" true
              (contains out "\"docs\":2,\"ok\":1,\"failed\":1")));
    test "--metrics .json: a JSON instrument dump" (fun () ->
        with_corpus (fun manifest ->
            let mjson = Filename.temp_file "rml_cli" ".json" in
            let code, _ =
              run
                (Printf.sprintf "parse -b calc --batch %s --metrics %s" manifest
                   mjson)
            in
            let text = In_channel.with_open_bin mjson In_channel.input_all in
            Sys.remove mjson;
            check Alcotest.int "exit" 3 code;
            check Alcotest.bool "array" true
              (String.length text > 2 && text.[0] = '[');
            check Alcotest.bool "instruments" true
              (contains text "\"name\":\"rml_batch_docs_total\"");
            check Alcotest.bool "quantiles" true (contains text "\"p99\":")));
    test "--metrics leaves the JSONL stream byte-identical" (fun () ->
        with_corpus (fun manifest ->
            let prom = Filename.temp_file "rml_cli" ".prom" in
            let code, out =
              run (Printf.sprintf "parse -b calc --batch %s" manifest)
            in
            let code', out' =
              run
                (Printf.sprintf "parse -b calc --batch %s --metrics %s" manifest
                   prom)
            in
            Sys.remove prom;
            check Alcotest.int "bare exit" 3 code;
            check Alcotest.int "metrics exit" 3 code';
            (* wall times are the only run-to-run noise; everything else
               must match byte for byte *)
            check
              (Alcotest.list Alcotest.string)
              "records identical modulo wall times"
              (List.map strip_times (json_lines out))
              (List.map strip_times (json_lines out'))));
    test "--trace-out writes a chrome trace of the batch" (fun () ->
        with_corpus (fun manifest ->
            let trace = Filename.temp_file "rml_cli" ".json" in
            let code, _ =
              run
                (Printf.sprintf "parse -b calc --batch %s --trace-out %s"
                   manifest trace)
            in
            let text = In_channel.with_open_bin trace In_channel.input_all in
            Sys.remove trace;
            check Alcotest.int "exit" 3 code;
            check Alcotest.bool "event array" true
              (String.length text > 2 && text.[0] = '[');
            check Alcotest.bool "compile span" true
              (contains text "\"name\":\"compile\"");
            check Alcotest.bool "attempt span" true
              (contains text "\"cat\":\"attempt\"");
            check Alcotest.bool "complete events" true
              (contains text "\"ph\":\"X\"")));
    test "--progress heartbeats on stderr" (fun () ->
        with_corpus (fun manifest ->
            let code, out =
              run (Printf.sprintf "parse -b calc --batch %s --progress" manifest)
            in
            check Alcotest.int "exit" 3 code;
            check Alcotest.bool "progress line" true (contains out "progress:");
            check Alcotest.bool "counts docs" true (contains out "2/2 docs");
            check Alcotest.bool "quantiles so far" true (contains out "p99");
            check Alcotest.bool "worst class" true (contains out "worst syntax")));
    test "telemetry flags are usage-checked" (fun () ->
        let expr = write_temp "1+2" in
        let checks =
          [
            ("--metrics without --batch",
             Printf.sprintf "parse -b calc -i %s --metrics /tmp/x.prom" expr);
            ("--trace-out without --batch",
             Printf.sprintf "parse -b calc -i %s --trace-out /tmp/x.json" expr);
            ("--progress without --batch",
             Printf.sprintf "parse -b calc -i %s --progress" expr);
            ("--stats-json with --batch",
             "parse -b calc --batch - --stats-json");
            ("--metrics with an unknown extension",
             "parse -b calc --batch - --metrics /tmp/x.txt");
          ]
        in
        List.iter
          (fun (name, args) ->
            let code, _ =
              match args with
              | a when contains a "--batch -" -> run_with_stdin "1+2\n" a
              | a -> run a
            in
            check Alcotest.int name 2 code)
          checks;
        Sys.remove expr);
  ]

let () =
  Alcotest.run "cli"
    [
      ("rml", tests);
      ("exit-codes", exit_matrix_tests);
      ("batch", batch_tests);
      ("telemetry", telemetry_tests);
    ]
