(* rml — the rats-ml command-line driver.

   Subcommands: modules, compose, optimize, passes, analyze, parse,
   profile, trace, coverage, fmt. Grammars come from .rats files or from
   the built-in collection (--builtin). [parse], [profile], [trace] and
   [coverage] only map their flags onto a [Rats.Run] spec;
   [Rats.Run.exec] runs it.

   Exit codes are part of the interface (scripts sort failures by them):
   0 success, 2 usage, 3 grammar/parse failure, 4 resource exhaustion,
   5 internal error. No code path may escape with an uncaught exception
   — every subcommand body runs under [guarded]. *)

open Cmdliner

let guarded = Rats.Run.guarded
let print_errors = Rats.Run.print_errors

(* The built-ins composed when this binary was built: a spec that is
   exactly a built-in loads one instead of composing and optimizing. *)
let snapshot = Rats_snapshot.find
let exec = Rats.Run.exec ~snapshot

(* --- shared arguments ------------------------------------------------------ *)

let files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"GRAMMAR" ~doc:"Grammar module files (.rats).")

let builtin_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "b"; "builtin" ] ~docv:"NAME"
        ~doc:
          "Use a built-in grammar collection instead of files: calc, json, \
           minic, minic-ext, minijava, rats (the module language itself) or path.")

let root_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "r"; "root" ] ~docv:"MODULE"
        ~doc:"Root module to compose (defaults to the built-in's root).")

let start_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "s"; "start" ] ~docv:"PROD" ~doc:"Start production.")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "O"; "optimize" ]
        ~doc:"Run the grammar optimization pipeline before use.")

let config_arg =
  let conv_config = function
    | "naive" -> Ok Rats.Config.naive
    | "packrat" -> Ok Rats.Config.packrat
    | "optimized" -> Ok Rats.Config.optimized
    | s -> Error (`Msg (Printf.sprintf "unknown configuration %S" s))
  in
  Arg.(
    value
    & opt
        (conv ((fun s -> conv_config s), fun ppf c -> Fmt.string ppf (Rats.Config.describe c)))
        Rats.Config.optimized
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:"Engine configuration: naive, packrat or optimized.")

let with_modules files builtin k =
  guarded @@ fun () ->
  match Rats.Run.load_modules files builtin with
  | Error ds -> print_errors ds
  | Ok modules -> k modules

(* Which grammar to compose: the modules and the root module. *)
let source_term =
  let source files builtin root start =
    { Rats.Run.default with files; builtin; root; start }
  in
  Term.(const source $ files_arg $ builtin_arg $ root_arg $ start_arg)

(* The grammar half of a run spec: what [parse], [profile], [trace] and
   [coverage] share. *)
let grammar_term =
  let grammar gs optimize config = { gs with Rats.Run.optimize; config } in
  Term.(const grammar $ source_term $ optimize_arg $ config_arg)

let with_grammar ?snapshot gs k =
  guarded @@ fun () ->
  match Rats.Run.grammar_of ?snapshot gs with Error ds -> print_errors ds | Ok g -> k g

(* --- subcommands ------------------------------------------------------------ *)

let modules_cmd =
  let dot_arg =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:"Emit the module dependency graph in graphviz format.")
  in
  let run files builtin dot =
    with_modules files builtin @@ fun modules ->
    if dot then (
      Fmt.pr "digraph modules {@.";
      Fmt.pr "  rankdir=LR; node [shape=box, fontname=monospace];@.";
      List.iter
        (fun (m : Rats.Module_ast.t) ->
          Fmt.pr "  %S;@." m.name;
          List.iter
            (fun (d : Rats.Module_ast.dependency) ->
              let style =
                match d.dep_kind with
                | Rats.Module_ast.Import -> ""
                | Rats.Module_ast.Modify ->
                    " [style=bold, color=red, label=\"modify\"]"
              in
              (* Parameter targets are drawn as dashed placeholders. *)
              if List.mem d.target m.params then
                Fmt.pr "  %S -> %S [style=dashed, label=%S];@." m.name
                  (m.name ^ "." ^ d.target)
                  (match d.dep_kind with
                  | Rats.Module_ast.Modify -> "modify param"
                  | Rats.Module_ast.Import -> "import param")
              else Fmt.pr "  %S -> %S%s;@." m.name d.target style)
            m.deps)
        modules;
      Fmt.pr "}@.";
      0)
    else (
      List.iter
        (fun (m : Rats.Module_ast.t) ->
          Fmt.pr "module %s(%s)@." m.name (String.concat ", " m.params);
          List.iter
            (fun (d : Rats.Module_ast.dependency) ->
              Fmt.pr "  %s %s(%s) as %s@."
                (match d.dep_kind with
                | Rats.Module_ast.Import -> "import"
                | Rats.Module_ast.Modify -> "modify")
                d.target
                (String.concat ", " d.args)
                (Rats.Module_ast.dep_alias d))
            m.deps;
          Fmt.pr "  %d items@." (List.length m.items))
        modules;
      0)
  in
  Cmd.v (Cmd.info "modules" ~doc:"List the modules in the given grammars.")
    Term.(const run $ files_arg $ builtin_arg $ dot_arg)

let leftrec_arg =
  Arg.(
    value & flag
    & info [ "L"; "eliminate-left-recursion" ]
        ~doc:
          "Rewrite direct left recursion into iteration before the grammar \
           is checked and optimized.")

let compose_cmd =
  let run gs optimize leftrec =
    with_grammar ~snapshot { gs with Rats.Run.optimize; leftrec } @@ fun g ->
    Fmt.pr "%s" (Rats.Pretty.grammar_to_string g);
    0
  in
  Cmd.v
    (Cmd.info "compose"
       ~doc:"Compose grammar modules and print the flat grammar.")
    Term.(
      const run $ source_term $ optimize_arg $ leftrec_arg)

(* --- the pass manager on the command line --------------------------------- *)

let optimize_cmd =
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Print one row per executed pass: wall time, production count \
             and IR-node count before/after.")
  in
  let print_arg =
    Arg.(
      value & flag
      & info [ "p"; "print" ] ~doc:"Print the optimized grammar when done.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Re-run the well-formedness check after every pass and abort if \
             a pass broke the grammar.")
  in
  let dump_after_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-after" ] ~docv:"PASS"
          ~doc:"Print the intermediate grammar right after the named pass.")
  in
  let passes_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "passes" ] ~docv:"LIST"
          ~doc:
            "Comma-separated registry pass names to run instead of the \
             default pipeline (see $(b,rml passes)).")
  in
  (* composed at run time: the passes are the point *)
  let run gs leftrec passes trace print_grammar verify dump_after =
    with_grammar gs @@ fun composed ->
    let ( let* ) = Result.bind in
    let find among name =
      match List.find_opt (fun (p : Rats.Pass.t) -> String.equal p.name name) among with
      | Some p -> Ok p
      | None -> Error [ Rats.Diagnostic.errorf "unknown pass %S (try: rml passes)" name ]
    in
    let outcome =
      let* selected =
        match passes with
        | None -> Ok (Rats.Pipeline.passes ())
        | Some list ->
            List.fold_right
              (fun name rest ->
                let* p = find (Rats.Pipeline.passes ()) name in
                let* ps = rest in
                Ok (p :: ps))
              (String.split_on_char ',' (String.trim list))
              (Ok [])
      in
      (* --dump-after names one of the passes this run executes *)
      let* () =
        match dump_after with
        | None -> Ok ()
        | Some name -> Result.map ignore (find selected name)
      in
      let dump_after =
        Option.map
          (fun name (p : Rats.Pass.t) g' ->
            if String.equal p.name name then
              Fmt.pr "; after %s@.%s@." name (Rats.Pretty.grammar_to_string g'))
          dump_after
      in
      let g = if leftrec then Rats.Passes.eliminate_left_recursion composed else composed in
      Rats.Driver.run ?dump_after ~verify selected g
    in
    match outcome with
    | Error ds -> print_errors ds
    | Ok o ->
        List.iter
          (fun d -> Fmt.epr "%s@." (Rats.Diagnostic.to_string d))
          o.Rats.Driver.warnings;
        if trace then
          Fmt.pr "%a" Rats.Driver.pp_table o.Rats.Driver.rows;
        if print_grammar then
          Fmt.pr "%s" (Rats.Pretty.grammar_to_string o.Rats.Driver.grammar);
        if (not trace) && not print_grammar then
          Fmt.pr
            "%d passes, %d -> %d productions, %d -> %d nodes, %.2f \
             ms (use --trace for the per-pass table)@."
            (List.length o.Rats.Driver.rows)
            (Rats.Grammar.length composed)
            (Rats.Grammar.length o.Rats.Driver.grammar)
            (Rats.Grammar.size composed)
            (Rats.Grammar.size o.Rats.Driver.grammar)
            (1000. *. Rats.Driver.total_time o);
        0
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Run the optimizer pass pipeline over a composed grammar, with \
          per-pass instrumentation.")
    Term.(
      const run $ source_term $ leftrec_arg $ passes_opt_arg $ trace_arg
      $ print_arg $ verify_arg $ dump_after_arg)

let passes_cmd =
  let run () =
    guarded @@ fun () ->
    Fmt.pr "default pipeline (in order):@.";
    List.iter
      (fun (p : Rats.Pass.t) -> Fmt.pr "  %-12s %s@." p.name p.doc)
      (Rats.Pipeline.passes ());
    Fmt.pr "@.E3 ladder steps (cumulative; passes in brackets):@.";
    List.iter
      (fun (s : Rats.Pipeline.step) ->
        Fmt.pr "  %-14s %-22s %s@." s.Rats.Pipeline.label
          (match s.Rats.Pipeline.passes with
          | [] -> "[engine/config only]"
          | ps ->
              Printf.sprintf "[%s]"
                (String.concat ", "
                   (List.map (fun (p : Rats.Pass.t) -> p.Rats.Pass.name) ps)))
          s.Rats.Pipeline.detail)
      (Rats.Pipeline.registry ());
    0
  in
  Cmd.v
    (Cmd.info "passes"
       ~doc:"List the registered optimizer passes and the E3 ladder steps.")
    Term.(const run $ const ())

let fmt_cmd =
  let run files builtin =
    with_modules files builtin @@ fun modules ->
    List.iter
      (fun m -> Fmt.pr "%s@." (Rats.Meta_print.module_to_string m))
      modules;
    0
  in
  Cmd.v
    (Cmd.info "fmt"
       ~doc:"Parse grammar modules and print them back formatted.")
    Term.(const run $ files_arg $ builtin_arg)

let analyze_cmd =
  let run gs =
    with_grammar ~snapshot gs @@ fun g ->
    let a = Rats.Analysis.analyze g in
    let issues = Rats.Analysis.check a in
    Fmt.pr "productions:      %d@." (Rats.Grammar.length g);
    Fmt.pr "grammar size:     %d IR nodes@." (Rats.Grammar.size g);
    Fmt.pr "start symbol:     %s@." (Rats.Grammar.start g);
    let reach = Rats.Analysis.reachable a in
    Fmt.pr "reachable:        %d@."
      (Rats.Analysis.StringSet.cardinal reach);
    let terminals = Rats.Passes.terminal_set g in
    Fmt.pr "terminal-level:   %d@."
      (Rats.Analysis.StringSet.cardinal terminals);
    let stateful =
      List.length
        (List.filter
           (fun (p : Rats.Production.t) -> Rats.Analysis.stateful a p.name)
           (Rats.Grammar.productions g))
    in
    Fmt.pr "stateful:         %d@." stateful;
    let lints = Rats.Lint.check g in
    Fmt.pr "lint warnings:    %d@." (List.length lints);
    List.iter (fun d -> Fmt.pr "%s@." (Rats.Diagnostic.to_string d)) lints;
    if issues = [] then (
      Fmt.pr "well-formed:      yes@.";
      0)
    else (
      List.iter (fun d -> Fmt.pr "%s@." (Rats.Diagnostic.to_string d)) issues;
      1)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Compose and report static analysis and well-formedness.")
    Term.(const run $ source_term)

let parse_cmd =
  let input_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Input file to parse ('-' for stdin).")
  in
  let stdin_arg =
    Arg.(
      value & flag
      & info [ "stdin" ]
          ~doc:
            "Read the input document from standard input (same as -i -), so \
             batch pipelines can stream documents without temp files.")
  in
  let mmap_arg =
    Arg.(
      value & flag
      & info [ "mmap" ]
          ~doc:
            "Memory-map the input file and parse it in place (zero-copy): \
             the document bytes never enter the OCaml heap. Results, stats \
             and error reports are identical to a normal read. Incompatible \
             with stdin (pipes cannot be mapped); with --edits the first \
             edit falls back to copy-on-write, materializing the patched \
             buffer on the heap — the mapping itself is never written.")
  in
  let recognize_arg =
    Arg.(
      value & flag
      & info [ "recognize" ]
          ~doc:
            "Parse in recognizer mode: erase every production kind to Void \
             before preparing the engine, so the run builds no semantic \
             values and (under the optimized configurations) allocates a \
             constant number of bytes regardless of input size. Verdicts, \
             consumed bytes, error reports, exit codes and the memo/fuel \
             --stats counters are identical to a normal parse; the tree \
             printed on success is (). Incompatible with --edits, whose \
             reparses exist to rebuild values.")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print parse statistics.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Do not print the tree.")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Print production enter/exit events (capped at 500 lines).")
  in
  let fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Abort after N production invocations (exit 4). Deterministic: \
             the same input always trips at the same point, on either \
             engine.")
  in
  let max_depth_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-depth" ] ~docv:"N"
          ~doc:"Cap invocation nesting at N levels (exit 4 when exceeded).")
  in
  let max_memo_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-memo" ] ~docv:"BYTES"
          ~doc:
            "Approximate memo-table budget. Exhausting it never fails the \
             parse: further productions run un-memoized (see memo-degraded \
             under --stats).")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Give up after roughly SECONDS of wall clock (exit 4). \
             Implemented signal-free by running with a bounded fuel slice \
             and doubling it while time remains, so the engines stay \
             deterministic; the grammar is compiled once. Single-document \
             parses only: not with --edits or --trace.")
  in
  let max_input_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-input" ] ~docv:"BYTES"
          ~doc:
            "Reject inputs longer than BYTES (exit 4). Streamed inputs \
             (--stdin, --batch) are read in bounded chunks that stop at the \
             cap, so an unbounded stream never exhausts memory.")
  in
  let batch_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "batch" ] ~docv:"MANIFEST|-"
          ~doc:
            "Parse a whole corpus under per-document fault isolation: \
             compile the grammar once, then parse every document named by \
             MANIFEST (one path per line, '#' comments) or streamed on \
             standard input ('-', documents separated by --batch-sep). Each \
             document gets its own resource budgets and --doc-timeout \
             deadline; every failure — malformed input, budget trip, \
             unreadable file, even an engine bug — becomes a JSON-lines \
             record on stdout instead of ending the run. Documents that \
             trip the fuel, depth or memory budget are retried once in \
             recognizer mode (the degradation ladder); the record says \
             which rung answered. The final line is an aggregate summary; \
             the exit code is the worst class seen (5 internal, else 4 \
             resource, else 3 syntax/io, else 0).")
  in
  let batch_sep_arg =
    Arg.(
      value
      & opt (some (enum [ ("nul", '\000'); ("line", '\n') ])) None
      & info [ "batch-sep" ] ~docv:"SEP"
          ~doc:
            "Document separator for '--batch -' streams: nul (default; \
             documents may contain newlines) or line. Requires --batch.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Inject deterministic faults into a --batch run (testing): a \
             comma-separated plan of seed=N, rate=F (fraction of documents \
             hit, seeded per-document coin), trunc@K (truncate reads at K \
             bytes), io@K (fail reads after K bytes), fuel@N / memo@N \
             (cap those budgets so the governor trips), skew@NS (step the \
             deadline clock by NS nanoseconds after arming). Example: \
             'seed=7,rate=0.5,trunc@64,fuel@10000'.")
  in
  let doc_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "doc-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-document deadline for --batch runs, measured on the \
             monotonic clock with the same signal-free fuel-slice \
             discipline as --timeout. An expired document is recorded as a \
             resource failure ('deadline') and the batch moves on.")
  in
  let edits_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "edits" ] ~docv:"FILE"
          ~doc:
            "Replay an edit script through an incremental parse session. \
             Each non-blank line is 'START OLD_LEN TEXT': replace OLD_LEN \
             bytes at byte offset START with TEXT (the rest of the line; \
             escapes \\\\n \\\\t \\\\r \\\\\\\\ are decoded; omit TEXT to \
             delete). '#' lines are comments. The buffer is re-parsed \
             after every edit, reporting reused/relocated memo entries; \
             the exit code reflects the final parse.")
  in
  let profile_flag_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Profile per-production cost during the parse and print the \
             sorted table when done (see also $(b,rml profile)).")
  in
  let trace_ring_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-ring" ] ~docv:"N"
          ~doc:
            "Keep a bounded ring of the last N structured parse events and \
             dump it to stderr when the parse fails or a resource budget \
             trips. Recording charges no fuel and none of the memo budget, \
             so governed runs consume exactly what unobserved ones do.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Export pipeline metrics from a --batch run: per-document \
             latency/fuel/memo-byte histograms (with p50/p90/p99), \
             rung/fail-class counters and GC + memo-arena gauges. The \
             format follows the extension: .prom (Prometheus text \
             exposition) or .json. Without this flag the metrics record \
             path is never entered and batch output is byte-identical.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a batch-level Chrome trace (chrome://tracing JSON) of \
             the --batch run: grammar compiles, per-document parses, \
             ladder-rung attempts and injected-fault markers on one \
             timeline.")
  in
  let progress_arg =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Print a heartbeat to stderr while a --batch run progresses: \
             documents done (of total, when known), docs/sec, p50/p99 \
             latency so far, and the worst failure class seen. JSONL \
             output on stdout is unchanged.")
  in
  let stats_json_arg =
    Arg.(
      value & flag
      & info [ "stats-json" ]
          ~doc:
            "Print parse statistics as one JSON object (the machine-readable \
             twin of --stats: same 12 counters, same order). Incompatible \
             with --batch, whose JSONL records carry their own counters.")
  in
  let flags_term =
    let flags input stdin mmap edits trace profile trace_ring timeout quiet stats
        stats_json batch batch_sep faults doc_timeout metrics trace_out progress =
      { Rats.Run.input; stdin; mmap; edits; trace; profile; trace_ring; timeout;
        quiet; stats; stats_json; batch; batch_sep; faults; doc_timeout; metrics;
        trace_out; progress }
    in
    Term.(
      const flags $ input_arg $ stdin_arg $ mmap_arg $ edits_arg $ trace_arg
      $ profile_flag_arg $ trace_ring_arg $ timeout_arg $ quiet_arg $ stats_arg
      $ stats_json_arg $ batch_arg $ batch_sep_arg $ faults_arg
      $ doc_timeout_arg $ metrics_arg $ trace_out_arg $ progress_arg)
  in
  let run grammar fuel max_depth max_memo max_input recognize flags =
    let limits =
      Rats.Limits.v ?fuel ?max_depth ?max_memo_bytes:max_memo
        ?max_input_bytes:max_input ()
    in
    (* usage mistakes exit 2 before any grammar is compiled *)
    match Rats.Run.of_flags { grammar with recognize; limits } flags with
    | Error msg ->
        Fmt.epr "rml: %s@." msg;
        Rats.Run.exit_usage
    | Ok spec -> exec spec
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse an input file with a composed grammar.")
    Term.(
      const run $ grammar_term $ fuel_arg $ max_depth_arg $ max_memo_arg
      $ max_input_arg $ recognize_arg $ flags_term)

(* --- observability subcommands --------------------------------------------- *)

(* [rml profile] and [rml trace]: one observed document, no tree *)
let observe_document grammar input observe =
  let input = if input = "-" then Rats.Run.Stdin else File input in
  let show = { Rats.Run.quiet = true; stats = false; stats_json = false } in
  exec { grammar; mode = Document { input; observe; show } }

let obs_input_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "i"; "input" ] ~docv:"FILE"
        ~doc:"Input file to parse ('-' for stdin).")

let profile_cmd =
  let top_arg =
    Arg.(
      value & opt int 20
      & info [ "top" ] ~docv:"N"
          ~doc:"Show the N most expensive productions (0 shows all).")
  in
  let flame_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame" ] ~docv:"FILE"
          ~doc:"Write a flamegraph JSON document of the parse here.")
  in
  let flame_format_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("speedscope", Rats.Run.Speedscope); ("chrome", Rats.Run.Chrome) ])
          Rats.Run.Speedscope
      & info [ "flame-format" ] ~docv:"FORMAT"
          ~doc:
            "Flamegraph flavor: speedscope (load at \
             https://www.speedscope.app) or chrome (chrome://tracing and \
             Perfetto).")
  in
  let run grammar input top flame flame_format =
    let flame = Option.map (fun p -> (p, flame_format)) flame in
    observe_document grammar input (Profile { top; flame })
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Parse an input under the per-production profiler and print the \
          sorted cost table; optionally export a flamegraph.")
    Term.(
      const run $ grammar_term $ obs_input_arg $ top_arg $ flame_arg
      $ flame_format_arg)

let trace_cmd =
  let ring_arg =
    Arg.(
      value & opt int 512
      & info [ "ring" ] ~docv:"N"
          ~doc:
            "Retain the last N events; older ones are overwritten in \
             place, so memory stays bounded on any input.")
  in
  let last_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "last" ] ~docv:"N"
          ~doc:"Print only the last N retained events.")
  in
  let fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Abort after N production invocations (exit 4); the trip \
             lands as the final ring event.")
  in
  let run grammar fuel input ring last =
    let grammar = { grammar with Rats.Run.limits = Rats.Limits.v ?fuel () } in
    observe_document grammar input (Events { ring; last })
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Parse an input recording structured events (enter, exit, memo \
          hit, backtrack, budget trip) into a bounded ring and dump it \
          with source excerpts.")
    Term.(
      const run $ grammar_term $ fuel_arg $ obs_input_arg $ ring_arg
      $ last_arg)

let coverage_cmd =
  let corpus_arg =
    Arg.(
      value & opt_all string []
      & info [ "i"; "corpus" ] ~docv:"PATH"
          ~doc:
            "Corpus file or directory (repeatable). Every regular file in \
             a directory is parsed; the union of all runs feeds one \
             coverage report.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit 1 when any production or alternative stays unexercised.")
  in
  let run grammar paths strict =
    exec { grammar; mode = Corpus { paths; strict } }
  in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:
         "Run a corpus through one observed engine and report grammar \
          coverage: productions and choice alternatives never exercised, \
          each with its defining module.")
    Term.(const run $ grammar_term $ corpus_arg $ strict_arg)

let () =
  (* rml is a short-lived process: its memo arena's rows (Bigarrays)
     should not pace major cycles. With this bound a row of up to 1 MB
     is a minor-heap custom block, and the copy a growth replaces is
     freed at the next minor collection instead of counting towards a
     major one. The library sets no GC parameter (DESIGN.md, "A
     one-shot run does no collection work"). *)
  Gc.set { (Gc.get ()) with custom_minor_max_size = 1 lsl 20 };
  let doc = "modular syntax for extensible parsers (after Rats!, PLDI 2006)" in
  let man =
    [
      `S Manpage.s_exit_status;
      `P "0 on success.";
      `P "2 on command-line usage errors.";
      `P "3 when grammar loading, composition or parsing fails.";
      `P
        "4 when a resource budget is exhausted (--fuel, --max-depth, \
         --timeout, input size) or the process runs out of stack or \
         memory.";
      `P "5 on internal errors.";
    ]
  in
  let info = Cmd.info "rml" ~version:Rats.version ~doc ~man in
  let code =
    Cmd.eval'
      (Cmd.group info
         [
           modules_cmd; compose_cmd; optimize_cmd; passes_cmd; analyze_cmd;
           parse_cmd; profile_cmd; trace_cmd; coverage_cmd; fmt_cmd;
         ])
  in
  (* cmdliner reports CLI misuse as 124 and its own internal errors as
     125; fold them into the documented code space. *)
  exit (match code with 124 -> 2 | 125 -> Rats.Run.exit_internal | c -> c)
