(* rml — the rats-ml command-line driver.

   Subcommands: modules, compose, analyze, parse, generate. Grammars come
   from .rats files or from the built-in collection (--builtin).

   Exit codes are part of the interface (scripts sort failures by them):
   0 success, 2 usage, 3 grammar/parse failure, 4 resource exhaustion,
   5 internal error. No code path may escape with an uncaught exception
   — every subcommand body runs under [guarded]. *)

open Cmdliner

let exit_parse = 3
let exit_resource = 4
let exit_internal = 5

exception Input_over_cap of int

let guarded f =
  try f () with
  | Input_over_cap cap ->
      Fmt.epr "rml: %s (%d-byte cap)@."
        (Rats.Limits.which_message Rats.Limits.Input)
        cap;
      exit_resource
  | Rats.Diagnostic.Fail d ->
      Fmt.epr "%s@." (Rats.Diagnostic.to_string d);
      exit_parse
  | Sys_error msg ->
      Fmt.epr "rml: %s@." msg;
      exit_parse
  | Stack_overflow ->
      Fmt.epr "rml: stack overflow@.";
      exit_resource
  | Out_of_memory ->
      Fmt.epr "rml: out of memory@.";
      exit_resource
  | e ->
      Fmt.epr "rml: internal error: %s@." (Printexc.to_string e);
      exit_internal

let builtin_texts = function
  | "calc" -> Some Rats.Grammars.Calc.texts
  | "json" -> Some Rats.Grammars.Json.texts
  | "minic" -> Some Rats.Grammars.Minic.texts
  | "minic-ext" ->
      Some (Rats.Grammars.Minic.texts @ Rats.Grammars.Minic.extension_texts)
  | "minijava" -> Some Rats.Grammars.Minijava.texts
  | "rats" -> Some Rats.Grammars.Metagrammar.texts
  | "path" -> Some Rats.Grammars.Path.texts
  | _ -> None

let builtin_root = function
  | "calc" -> Some "calc.Main"
  | "json" -> Some "json.Main"
  | "minic" -> Some "c.Program"
  | "minic-ext" -> Some "cx.Program"
  | "minijava" -> Some "j.Program"
  | "rats" -> Some "rats.Syntax"
  | "path" -> Some "path.Main"
  | _ -> None

let print_errors ds =
  List.iter
    (fun d -> Fmt.epr "%s@." (Rats.Diagnostic.to_string d))
    ds;
  exit_parse

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
    | "vm" -> Ok Rats.Config.vm
    | s -> Error (`Msg (Printf.sprintf "unknown configuration %S" s))
  in
  Arg.(
    value
    & opt
        (conv ((fun s -> conv_config s), fun ppf c -> Fmt.string ppf (Rats.Config.describe c)))
        Rats.Config.optimized
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:"Engine configuration: naive, packrat, optimized or vm.")

let engine_arg =
  let conv_engine = function
    | "closure" -> Ok Rats.Config.Closure
    | "vm" | "bytecode" -> Ok Rats.Config.Bytecode
    | s -> Error (`Msg (Printf.sprintf "unknown engine %S" s))
  in
  Arg.(
    value
    & opt
        (some
           (conv
              ( (fun s -> conv_engine s),
                fun ppf b -> Fmt.string ppf (Rats.Config.backend_name b) )))
        None
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution back end: closure (a network of OCaml closures) or vm \
           (flat bytecode with an explicit backtrack stack). Overrides the \
           configuration's choice.")

let load_modules files builtin =
  match (files, builtin) with
  | [], None ->
      Error [ Rats.Diagnostic.error "no grammar files and no --builtin given" ]
  | files, builtin -> (
      let texts =
        match builtin with
        | Some name -> (
            match builtin_texts name with
            | Some ts -> Ok ts
            | None ->
                Error
                  [ Rats.Diagnostic.errorf "unknown built-in grammar %S" name ])
        | None -> Ok []
      in
      match texts with
      | Error ds -> Error ds
      | Ok texts -> (
          let from_texts =
            List.concat_map
              (fun t ->
                match Rats.modules_of_string t with
                | Ok ms -> ms
                | Error (d :: _) -> raise (Rats.Diagnostic.Fail d)
                | Error [] ->
                    raise
                      (Rats.Diagnostic.Fail
                         (Rats.Diagnostic.error "built-in grammar failed to parse")))
              texts
          in
          match
            List.fold_left
              (fun acc f ->
                match acc with
                | Error _ as e -> e
                | Ok ms -> (
                    match Rats.modules_of_file f with
                    | Ok more -> Ok (ms @ more)
                    | Error ds -> Error ds))
              (Ok from_texts) files
          with
          | exception Rats.Diagnostic.Fail d -> Error [ d ]
          | r -> r))

let read_input input =
  if input = "-" then In_channel.input_all In_channel.stdin
  else In_channel.with_open_bin input In_channel.input_all

let apply_engine engine config =
  match engine with
  | None -> config
  | Some b -> Rats.Config.with_backend b config

let compose_from files builtin root start =
  match load_modules files builtin with
  | Error ds -> Error ds
  | Ok modules -> (
      let root =
        match (root, builtin) with
        | Some r, _ -> Some r
        | None, Some b -> builtin_root b
        | None, None -> None
      in
      match root with
      | None -> Error [ Rats.Diagnostic.error "no --root given" ]
      | Some root -> Rats.compose ?start ~root modules)

(* --- subcommands ------------------------------------------------------------ *)

let modules_cmd =
  let dot_arg =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:"Emit the module dependency graph in graphviz format.")
  in
  let run files builtin dot =
    guarded @@ fun () ->
    match load_modules files builtin with
    | Error ds -> print_errors ds
    | Ok modules ->
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
          "Enable the opt-in \"leftrec\" registry pass: rewrite direct left \
           recursion into iteration before use.")

(* The one place the -L flag maps to the optimizer: the registered
   repair pass, run through the driver like every other pass. *)
let apply_leftrec g =
  match Rats.Pipeline.find_pass "leftrec" with
  | None -> g
  | Some p -> (Rats.Driver.run_exn ~gate:false [ p ] g).Rats.Driver.grammar

let compose_cmd =
  let run files builtin root start optimize leftrec =
    guarded @@ fun () ->
    match compose_from files builtin root start with
    | Error ds -> print_errors ds
    | Ok g ->
        let g = if leftrec then apply_leftrec g else g in
        let g = if optimize then Rats.Pipeline.optimize g else g in
        Fmt.pr "%s" (Rats.Pretty.grammar_to_string g);
        0
  in
  Cmd.v
    (Cmd.info "compose"
       ~doc:"Compose grammar modules and print the flat grammar.")
    Term.(
      const run $ files_arg $ builtin_arg $ root_arg $ start_arg
      $ optimize_arg $ leftrec_arg)

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
  let run files builtin root start leftrec passes trace print_grammar verify
      dump_after =
    guarded @@ fun () ->
    match compose_from files builtin root start with
    | Error ds -> print_errors ds
    | Ok g -> (
        let named =
          match passes with
          | None -> Ok (Rats.Pipeline.passes ())
          | Some list ->
              List.fold_left
                (fun acc name ->
                  match (acc, Rats.Pipeline.find_pass name) with
                  | (Error _ as e), _ -> e
                  | Ok ps, Some p -> Ok (ps @ [ p ])
                  | Ok _, None ->
                      Error
                        [
                          Rats.Diagnostic.errorf
                            "unknown pass %S (try: rml passes)" name;
                        ])
                (Ok [])
                (String.split_on_char ',' (String.trim list))
        in
        match named with
        | Error ds -> print_errors ds
        | Ok selected -> (
            let selected =
              if not leftrec then selected
              else
                match Rats.Pipeline.find_pass "leftrec" with
                | Some p -> p :: selected
                | None -> selected
            in
            let dump_after =
              Option.map
                (fun name (p : Rats.Pass.t) g' ->
                  if String.equal p.Rats.Pass.name name then
                    Fmt.pr "; after %s@.%s@." name
                      (Rats.Pretty.grammar_to_string g'))
                dump_after
            in
            match Rats.Driver.run ?dump_after ~verify selected g with
            | Error ds -> print_errors ds
            | Ok o ->
                List.iter
                  (fun d -> Fmt.epr "%s@." (Rats.Diagnostic.to_string d))
                  o.Rats.Driver.warnings;
                if trace then
                  Fmt.pr "%a" Rats.Stats.pp_pass_table o.Rats.Driver.rows;
                if print_grammar then
                  Fmt.pr "%s" (Rats.Pretty.grammar_to_string o.Rats.Driver.grammar);
                if (not trace) && not print_grammar then
                  Fmt.pr
                    "%d passes, %d -> %d productions, %d -> %d nodes, %.2f \
                     ms (use --trace for the per-pass table)@."
                    (List.length o.Rats.Driver.rows)
                    (Rats.Grammar.length g)
                    (Rats.Grammar.length o.Rats.Driver.grammar)
                    (Rats.Grammar.size g)
                    (Rats.Grammar.size o.Rats.Driver.grammar)
                    (1000. *. Rats.Driver.total_time o);
                0))
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Run the optimizer pass pipeline over a composed grammar, with \
          per-pass instrumentation.")
    Term.(
      const run $ files_arg $ builtin_arg $ root_arg $ start_arg $ leftrec_arg
      $ passes_opt_arg $ trace_arg $ print_arg $ verify_arg $ dump_after_arg)

let passes_cmd =
  let run () =
    guarded @@ fun () ->
    let show (p : Rats.Pass.t) =
      Fmt.pr "  %-12s %-10s %-12s %s@." p.Rats.Pass.name
        (match p.Rats.Pass.stage with
        | Rats.Pass.Repair -> "repair"
        | Rats.Pass.Optimize -> "optimize")
        (match p.Rats.Pass.invalidates with
        | Rats.Analysis_ctx.Nothing -> "keeps-cache"
        | Rats.Analysis_ctx.Analyses -> "structural")
        p.Rats.Pass.doc
    in
    Fmt.pr "default pipeline (in order):@.";
    List.iter show (Rats.Pipeline.passes ());
    Fmt.pr "@.opt-in (enable with --passes or -L):@.";
    List.iter show Rats.Pipeline.optional_passes;
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
    guarded @@ fun () ->
    match load_modules files builtin with
    | Error ds -> print_errors ds
    | Ok modules ->
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
  let run files builtin root start =
    guarded @@ fun () ->
    match compose_from files builtin root start with
    | Error ds -> print_errors ds
    | Ok g ->
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
    Term.(const run $ files_arg $ builtin_arg $ root_arg $ start_arg)

(* Edit scripts for [parse --edits]: one edit per line, [START OLD_LEN
   TEXT] — replace OLD_LEN bytes at byte offset START with TEXT, which
   is the rest of the line after the second space (absent for pure
   deletions). Blank lines and lines starting with '#' are skipped. *)

let unescape_edit_text s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then (
       (match s.[!i + 1] with
       | 'n' -> Buffer.add_char b '\n'
       | 't' -> Buffer.add_char b '\t'
       | 'r' -> Buffer.add_char b '\r'
       | '\\' -> Buffer.add_char b '\\'
       | c ->
           Buffer.add_char b '\\';
           Buffer.add_char b c);
       incr i)
     else Buffer.add_char b s.[!i]);
    incr i
  done;
  Buffer.contents b

let parse_edit_line line =
  match String.index_opt line ' ' with
  | None -> None
  | Some i -> (
      let start = int_of_string_opt (String.sub line 0 i) in
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      let old_len, text =
        match String.index_opt rest ' ' with
        | None -> (int_of_string_opt rest, "")
        | Some j ->
            ( int_of_string_opt (String.sub rest 0 j),
              String.sub rest (j + 1) (String.length rest - j - 1) )
      in
      match (start, old_len) with
      | Some s, Some o when s >= 0 && o >= 0 ->
          Some (s, o, unescape_edit_text text)
      | _ -> None)

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
             --stats counters are identical to a normal parse (only the \
             VM's instruction counter shrinks: the voidified program \
             compiles fewer value instructions); the tree printed on \
             success is (). Incompatible with --edits, whose reparses \
             exist to rebuild values.")
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
             deterministic.")
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
      & opt (enum [ ("nul", '\000'); ("line", '\n') ]) '\000'
      & info [ "batch-sep" ] ~docv:"SEP"
          ~doc:
            "Document separator for '--batch -' streams: nul (default; \
             documents may contain newlines) or line.")
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
             twin of --stats: same 14 counters, same order). Incompatible \
             with --batch, whose JSONL records carry their own counters.")
  in
  let run files builtin root start optimize config engine fuel max_depth
      max_memo max_input timeout input use_stdin mmap batch batch_sep
      faults_spec doc_timeout recognize stats quiet trace edits profile ring
      metrics_out trace_out progress stats_json =
    guarded @@ fun () ->
    (* Resolve where the document comes from before any heavy work, so
       usage mistakes exit 2 without compiling a grammar. *)
    let from_stdin = use_stdin || input = Some "-" in
    let input_err msg =
      Fmt.epr "rml: %s@." msg;
      Some 2
    in
    let faults_plan =
      match faults_spec with
      | None -> Ok Rats.Faults.none
      | Some s -> Rats.Faults.of_spec s
    in
    let usage_error =
      match batch with
      | Some _ -> (
          if
            input <> None || use_stdin || mmap || edits <> None || trace
            || profile || ring <> None || timeout <> None
          then
            input_err
              "--batch is incompatible with \
               --input/--stdin/--mmap/--edits/--trace/--profile/--trace-ring/--timeout \
               (use --doc-timeout for per-document deadlines)"
          else if stats_json then
            input_err
              "--stats-json requires a single-document parse (batch records \
               carry their own counters)"
          else
            match metrics_out with
            | Some f
              when not
                     (Filename.check_suffix f ".prom"
                     || Filename.check_suffix f ".json") ->
                input_err "--metrics FILE must end in .prom or .json"
            | _ -> (
                match faults_plan with Error m -> input_err m | Ok _ -> None))
      | None ->
          if faults_spec <> None then input_err "--faults requires --batch"
          else if doc_timeout <> None then
            input_err "--doc-timeout requires --batch"
          else if metrics_out <> None then
            input_err "--metrics requires --batch"
          else if trace_out <> None then
            input_err "--trace-out requires --batch"
          else if progress then input_err "--progress requires --batch"
          else if recognize && edits <> None then
            input_err
              "--recognize is incompatible with --edits (recognizer runs \
               build no values to reparse incrementally)"
          else (
            match (input, use_stdin) with
            | None, false ->
                input_err "no input (use -i FILE, -i - or --stdin)"
            | Some f, true when f <> "-" ->
                input_err "both --input and --stdin given"
            | _ when mmap && from_stdin ->
                input_err "--mmap cannot map standard input (pipes have no length)"
            | _ -> None)
    in
    match usage_error with
    | Some code -> code
    | None -> (
    match compose_from files builtin root start with
    | Error ds -> print_errors ds
    | Ok g -> (
        let config = apply_engine engine config in
        let config =
          match (fuel, max_depth, max_memo, max_input) with
          | None, None, None, None -> config
          | _ ->
              Rats.Config.with_limits
                (Rats.Limits.v ?fuel ?max_depth ?max_memo_bytes:max_memo
                   ?max_input_bytes:max_input ())
                config
        in
        let observe =
          let w = Rats.Observe.off in
          let w =
            if profile then { w with Rats.Observe.profile = true } else w
          in
          match ring with
          | None -> w
          | Some n ->
              {
                w with
                Rats.Observe.events = true;
                ring_bytes = max 1 n * Rats.Observe.event_bytes;
              }
        in
        let config =
          if Rats.Observe.enabled observe then
            Rats.Config.with_observe observe config
          else config
        in
        let dump_ring eng text =
          match ring with
          | None -> ()
          | Some _ -> (
              match Rats.Engine.observation eng with
              | Some o ->
                  Fmt.epr "%a" (Rats.Observe.pp_events ~input:text ?last:None) o
              | None -> ())
        in
        let print_profile eng =
          if profile then
            match Rats.Engine.observation eng with
            | Some o -> (
                match Rats.Observe.profile o with
                | Some p -> Fmt.pr "%a" (Rats.Profile.pp_table ?top:None) p
                | None -> ())
            | None -> ()
        in
        if trace && config.Rats.Config.backend = Rats.Config.Bytecode then
          Fmt.epr "note: tracing runs on the closure engine@.";
        if trace && (profile || ring <> None) then
          Fmt.epr "note: --profile/--trace-ring are ignored with --trace@.";
        let g = if optimize then Rats.Pipeline.optimize g else g in
        (* Whole-grammar kind erasure, up front: everything downstream —
           engine preparation, --stats, exit codes — sees an ordinary
           grammar that happens to be all-Void. *)
        let g =
          if not recognize then g
          else
            match Rats.Batch.recognizer_erase g with
            | Some g -> g
            | None ->
                raise
                  (Rats.Diagnostic.Fail
                     (Rats.Diagnostic.error
                        "recognizer erasure produced an ill-formed grammar"))
        in
        match batch with
        | Some spec -> (
            let faults =
              match faults_plan with Ok p -> p | Error _ -> Rats.Faults.none
            in
            let deadline_ns =
              Option.map (fun s -> int_of_float (s *. 1e9)) doc_timeout
            in
            let source =
              if spec = "-" then
                Rats.Batch.Channel { ic = stdin; sep = batch_sep }
              else Rats.Batch.Manifest spec
            in
            (* One registry serves both consumers: the --metrics export
               and the --progress heartbeat (which reads the latency
               histogram back out of it). Either flag turns it on;
               neither means Batch.run never enters the record path. *)
            let reg =
              if metrics_out <> None || progress then
                Some (Rats.Metrics.create ())
              else None
            in
            let spans =
              Option.map (fun _ -> Rats.Profile.Spans.create ()) trace_out
            in
            let base_record r =
              print_endline (Rats.Batch.jsonl_of_record r)
            in
            let on_record, progress_done =
              if not progress then (base_record, fun () -> ())
              else begin
                let reg = Option.get reg in
                (* same (name, labels) => same instrument Batch.run
                   records into; lazy so Batch registers it first (with
                   its help text) *)
                let lat =
                  lazy (Rats.Metrics.histogram reg "rml_batch_doc_latency_us")
                in
                let total =
                  (* best-effort count for the N/total display; the
                     stream source has no total until it ends *)
                  if spec = "-" then None
                  else
                    match In_channel.with_open_bin spec In_channel.input_all with
                    | all ->
                        Some
                          (List.length
                             (List.filter
                                (fun l ->
                                  let l = String.trim l in
                                  l <> "" && l.[0] <> '#')
                                (String.split_on_char '\n' all)))
                    | exception Sys_error _ -> None
                in
                let t0 = Rats.Profile.now_ns () in
                let done_ = ref 0 in
                let last_emit = ref t0 in
                let worst = ref 0 in
                let worst_name =
                  [| "none"; "syntax"; "io"; "resource"; "internal" |]
                in
                let rank (r : Rats.Batch.record) =
                  match r.Rats.Batch.r_fail with
                  | None -> 0
                  | Some Rats.Batch.Syntax -> 1
                  | Some Rats.Batch.Io -> 2
                  | Some (Rats.Batch.Resource _) -> 3
                  | Some Rats.Batch.Internal -> 4
                in
                let emit () =
                  let now = Rats.Profile.now_ns () in
                  let dt = float_of_int (now - t0) /. 1e9 in
                  let rate =
                    if dt <= 0. then 0. else float_of_int !done_ /. dt
                  in
                  let h = Lazy.force lat in
                  Printf.eprintf
                    "progress: %d%s docs, %.1f docs/s, p50 %.3fms p99 \
                     %.3fms, worst %s\n\
                     %!"
                    !done_
                    (match total with
                    | Some t -> Printf.sprintf "/%d" t
                    | None -> "")
                    rate
                    (Rats.Metrics.quantile h 0.5 /. 1000.)
                    (Rats.Metrics.quantile h 0.99 /. 1000.)
                    worst_name.(!worst);
                  last_emit := now
                in
                let on r =
                  base_record r;
                  incr done_;
                  let k = rank r in
                  if k > !worst then worst := k;
                  let now = Rats.Profile.now_ns () in
                  if !done_ mod 64 = 0 || now - !last_emit >= 1_000_000_000
                  then emit ()
                in
                (on, emit)
              end
            in
            match
              Rats.Batch.run ~config ?deadline_ns ~faults ?metrics:reg ?spans
                ~on_record g source
            with
            | Error ds -> print_errors ds
            | Ok report ->
                progress_done ();
                (match (metrics_out, reg) with
                | Some path, Some reg ->
                    let body =
                      if Filename.check_suffix path ".prom" then
                        Rats.Metrics.to_prometheus reg
                      else Rats.Metrics.to_json reg
                    in
                    Out_channel.with_open_bin path (fun oc ->
                        Out_channel.output_string oc body)
                | _ -> ());
                (match (trace_out, spans) with
                | Some path, Some sp ->
                    Out_channel.with_open_bin path (fun oc ->
                        Out_channel.output_string oc
                          (Rats.Profile.Spans.to_chrome sp))
                | _ -> ());
                print_endline
                  (Rats.Batch.jsonl_of_summary report.Rats.Batch.summary);
                Fmt.epr "batch: %a@." Rats.Batch.pp_summary
                  report.Rats.Batch.summary;
                Rats.Batch.exit_code report)
        | None -> (
        match Rats.Engine.prepare ~config g with
        | Error ds -> print_errors ds
        | Ok eng -> (
            let source =
              if from_stdin then
                (* Bounded, chunked: stops as soon as the stream exceeds
                   the input-byte cap (exit 4) instead of slurping an
                   arbitrarily large stream before checking. *)
                Rats.Source.of_string ~name:"<stdin>"
                  (match
                     Rats.Faults.read_channel
                       ~cap:
                         config.Rats.Config.limits.Rats.Limits.max_input_bytes
                       In_channel.stdin
                   with
                  | Ok text -> text
                  | Error (Rats.Faults.Too_large cap) ->
                      raise (Input_over_cap cap)
                  | Error (Rats.Faults.Io_fault m) -> raise (Sys_error m))
              else
                let path = Option.get input in
                if mmap then
                  match Rats.Source.map_file path with
                  | Ok s -> s
                  | Error msg -> raise (Sys_error msg)
                else
                  Rats.Source.of_string ~name:path
                    (In_channel.with_open_bin path In_channel.input_all)
            in
            match edits with
            | Some script ->
                if trace then Fmt.epr "note: --trace is ignored with --edits@.";
                (* Same buffer, session-conventional name. Zero-copy for
                   a mapped source until the first edit (CoW). *)
                let session =
                  Rats.Session.create_source eng
                    (Rats.Source.of_input ~name:"<buffer>"
                       (Rats.Source.input source))
                in
                let show label result =
                  let st = Rats.Session.stats session in
                  match result with
                  | Ok _ ->
                      Fmt.pr "%s: ok (%d bytes, reused=%d relocated=%d)@." label
                        (Rats.Session.length session)
                        st.Rats.Stats.memo_reused st.Rats.Stats.memo_relocated
                  | Error e ->
                      Fmt.pr "%s: %s@." label (Rats.Parse_error.message e)
                in
                let last = ref (Rats.Session.reparse session) in
                show "initial" !last;
                let lines =
                  String.split_on_char '\n'
                    (In_channel.with_open_bin script In_channel.input_all)
                in
                let bad = ref None in
                let n = ref 0 in
                List.iter
                  (fun raw ->
                    let line =
                      (* tolerate CRLF edit scripts *)
                      if
                        String.length raw > 0
                        && raw.[String.length raw - 1] = '\r'
                      then String.sub raw 0 (String.length raw - 1)
                      else raw
                    in
                    if !bad <> None || String.trim line = "" || line.[0] = '#'
                    then ()
                    else
                      match parse_edit_line line with
                      | None -> bad := Some line
                      | Some (start, old_len, replacement) -> (
                          incr n;
                          match
                            Rats.Session.apply_edit session ~start ~old_len
                              ~replacement
                          with
                          | () ->
                              last := Rats.Session.reparse session;
                              show (Printf.sprintf "edit %d" !n) !last
                          | exception Invalid_argument _ -> bad := Some line))
                  lines;
                (match !bad with
                | Some line ->
                    Fmt.epr "rml: bad edit: %s@." line;
                    2
                | None -> (
                    (if stats then
                       Fmt.pr "stats: %a@." Rats.Stats.pp
                         (Rats.Session.stats session));
                    if stats_json then
                      print_endline
                        (Rats.Stats.to_json (Rats.Session.stats session));
                    print_profile eng;
                    match !last with
                    | Ok v ->
                        if not quiet then (
                          print_string (Rats.Value.to_string v);
                          print_newline ());
                        0
                    | Error e ->
                        (* the session's source: line starts patched
                           across the edit script, not rebuilt *)
                        let source = Rats.Session.source session in
                        Fmt.epr "%s@." (Rats.Parse_error.to_string ~source e);
                        dump_ring eng (Rats.Session.text session);
                        if Rats.Parse_error.exhausted_which e <> None then
                          exit_resource
                        else exit_parse))
            | None -> (
            let run_governed () =
              match timeout with
              | None ->
                  Ok (eng, Rats.Engine.run_input eng (Rats.Source.input source))
              | Some seconds ->
                  (* Fuel-slice polling: parse under a small fuel budget,
                     and while the deadline has not passed, double the
                     slice and retry. Runs are deterministic, so retries
                     cost only time. The slice never exceeds an explicit
                     --fuel budget, so combining --fuel with --timeout
                     honors whichever budget is smaller: a fuel trip at
                     the full budget is reported as fuel exhaustion, not
                     retried. *)
                  (* Monotonic clock (Profile's CLOCK_MONOTONIC source):
                     wall-clock steps — NTP jumps, suspend/resume —
                     can neither hang the loop nor spuriously trip it. *)
                  let deadline =
                    Rats.Profile.now_ns () + int_of_float (seconds *. 1e9)
                  in
                  let budget = config.Rats.Config.limits.Rats.Limits.fuel in
                  let rec go slice =
                    let capped =
                      { config.Rats.Config.limits with Rats.Limits.fuel = slice }
                    in
                    match
                      Rats.Engine.prepare
                        ~config:(Rats.Config.with_limits capped config) g
                    with
                    | Error ds -> Error ds
                    | Ok eng' -> (
                        let out =
                          Rats.Engine.run_input eng' (Rats.Source.input source)
                        in
                        match out.Rats.Engine.result with
                        | Error e
                          when Rats.Parse_error.exhausted_which e
                               = Some Rats.Limits.Fuel
                               && slice < budget ->
                            if Rats.Profile.now_ns () >= deadline then (
                              Fmt.epr "rml: timeout of %gs exceeded@." seconds;
                              Ok (eng', out))
                            else
                              go
                                (if slice > budget / 2 then budget
                                 else slice * 2)
                        | _ -> Ok (eng', out))
                  in
                  go (min budget 65536)
            in
            let outcome =
              if trace then (
                let shown = ref 0 in
                let on_event (e : Rats.Engine.trace_event) =
                  incr shown;
                  if !shown <= 500 then
                    Fmt.pr "%s%s %s @%d%s@."
                      (String.make (min e.depth 40) ' ')
                      (match e.outcome with
                      | None -> ">"
                      | Some p when p >= 0 -> "<"
                      | Some _ -> "x")
                      e.prod e.at
                      (match e.outcome with
                      | Some p when p >= 0 -> Printf.sprintf " -> %d" p
                      | _ -> "")
                  else if !shown = 501 then Fmt.pr "... (trace truncated)@."
                in
                Result.map (fun out -> (eng, out))
                  (Rats.Engine.trace ~config ~on_event g
                     (Rats.Source.text source)))
              else run_governed ()
            in
            match outcome with
            | Error ds -> print_errors ds
            | Ok (eng_used, out) -> (
                (if stats then
                   Fmt.pr "stats: %a@." Rats.Stats.pp out.Rats.Engine.stats);
                if stats_json then
                  print_endline (Rats.Stats.to_json out.Rats.Engine.stats);
                print_profile eng_used;
                match out.Rats.Engine.result with
                | Ok v ->
                    if not quiet then (
                      print_string (Rats.Value.to_string v);
                      print_newline ());
                    0
                | Error e ->
                    Fmt.epr "%s@." (Rats.Parse_error.to_string ~source e);
                    dump_ring eng_used (Rats.Source.text source);
                    if Rats.Parse_error.exhausted_which e <> None then
                      exit_resource
                    else exit_parse))))))
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse an input file with a composed grammar.")
    Term.(
      const run $ files_arg $ builtin_arg $ root_arg $ start_arg
      $ optimize_arg $ config_arg $ engine_arg $ fuel_arg $ max_depth_arg
      $ max_memo_arg $ max_input_arg $ timeout_arg $ input_arg $ stdin_arg
      $ mmap_arg $ batch_arg $ batch_sep_arg $ faults_arg $ doc_timeout_arg
      $ recognize_arg $ stats_arg $ quiet_arg $ trace_arg $ edits_arg
      $ profile_flag_arg $ trace_ring_arg $ metrics_arg $ trace_out_arg
      $ progress_arg $ stats_json_arg)

(* --- observability subcommands --------------------------------------------- *)

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
          (enum [ ("speedscope", `Speedscope); ("chrome", `Chrome) ])
          `Speedscope
      & info [ "flame-format" ] ~docv:"FORMAT"
          ~doc:
            "Flamegraph flavor: speedscope (load at \
             https://www.speedscope.app) or chrome (chrome://tracing and \
             Perfetto).")
  in
  let run files builtin root start optimize config engine input top flame
      flame_format =
    guarded @@ fun () ->
    match compose_from files builtin root start with
    | Error ds -> print_errors ds
    | Ok g -> (
        let config = apply_engine engine config in
        let config =
          Rats.Config.with_observe
            { Rats.Observe.off with Rats.Observe.profile = true }
            config
        in
        let g = if optimize then Rats.Pipeline.optimize g else g in
        match Rats.Engine.prepare ~config g with
        | Error ds -> print_errors ds
        | Ok eng -> (
            let text = read_input input in
            let out = Rats.Engine.run eng text in
            let prof =
              match Rats.Engine.observation eng with
              | Some o -> Rats.Observe.profile o
              | None -> None
            in
            match prof with
            | None ->
                Fmt.epr "rml: internal error: no profile was recorded@.";
                exit_internal
            | Some p ->
                (match out.Rats.Engine.result with
                | Ok _ -> ()
                | Error e ->
                    let source =
                      Rats.Source.of_string
                        ~name:(if input = "-" then "<stdin>" else input)
                        text
                    in
                    Fmt.epr "%s@." (Rats.Parse_error.to_string ~source e));
                (if top <= 0 then
                   Fmt.pr "%a" (Rats.Profile.pp_table ?top:None) p
                 else Fmt.pr "%a" (Rats.Profile.pp_table ~top) p);
                (match flame with
                | None -> ()
                | Some path ->
                    let doc =
                      match flame_format with
                      | `Speedscope ->
                          Rats.Profile.to_speedscope
                            ~name:(if input = "-" then "stdin" else input)
                            p
                      | `Chrome -> Rats.Profile.to_chrome p
                    in
                    Out_channel.with_open_bin path (fun oc ->
                        Out_channel.output_string oc doc);
                    Fmt.epr "rml: wrote %s@." path);
                if Rats.Profile.truncated p then
                  Fmt.epr
                    "note: flame event log truncated; the table stays exact@.";
                (match out.Rats.Engine.result with
                | Ok _ -> 0
                | Error e ->
                    if Rats.Parse_error.exhausted_which e <> None then
                      exit_resource
                    else exit_parse)))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Parse an input under the per-production profiler and print the \
          sorted cost table; optionally export a flamegraph.")
    Term.(
      const run $ files_arg $ builtin_arg $ root_arg $ start_arg
      $ optimize_arg $ config_arg $ engine_arg $ obs_input_arg $ top_arg
      $ flame_arg $ flame_format_arg)

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
  let run files builtin root start optimize config engine fuel input ring last
      =
    guarded @@ fun () ->
    match compose_from files builtin root start with
    | Error ds -> print_errors ds
    | Ok g -> (
        let config = apply_engine engine config in
        let config =
          match fuel with
          | None -> config
          | Some _ ->
              Rats.Config.with_limits (Rats.Limits.v ?fuel ()) config
        in
        let config =
          Rats.Config.with_observe
            {
              Rats.Observe.off with
              Rats.Observe.events = true;
              ring_bytes = max 1 ring * Rats.Observe.event_bytes;
            }
            config
        in
        let g = if optimize then Rats.Pipeline.optimize g else g in
        match Rats.Engine.prepare ~config g with
        | Error ds -> print_errors ds
        | Ok eng -> (
            let text = read_input input in
            let out = Rats.Engine.run eng text in
            (match Rats.Engine.observation eng with
            | Some o ->
                Fmt.pr "%a" (Rats.Observe.pp_events ~input:text ?last) o
            | None -> ());
            match out.Rats.Engine.result with
            | Ok _ -> 0
            | Error e ->
                let source =
                  Rats.Source.of_string
                    ~name:(if input = "-" then "<stdin>" else input)
                    text
                in
                Fmt.epr "%s@." (Rats.Parse_error.to_string ~source e);
                if Rats.Parse_error.exhausted_which e <> None then
                  exit_resource
                else exit_parse))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Parse an input recording structured events (enter, exit, memo \
          hit, backtrack, budget trip) into a bounded ring and dump it \
          with source excerpts.")
    Term.(
      const run $ files_arg $ builtin_arg $ root_arg $ start_arg
      $ optimize_arg $ config_arg $ engine_arg $ fuel_arg $ obs_input_arg
      $ ring_arg $ last_arg)

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
  let run files builtin root start optimize config engine corpus strict =
    guarded @@ fun () ->
    match compose_from files builtin root start with
    | Error ds -> print_errors ds
    | Ok g -> (
        let config = apply_engine engine config in
        let config =
          Rats.Config.with_observe
            { Rats.Observe.off with Rats.Observe.coverage = true }
            config
        in
        let g = if optimize then Rats.Pipeline.optimize g else g in
        match Rats.Engine.prepare ~config g with
        | Error ds -> print_errors ds
        | Ok eng -> (
            let paths =
              List.concat_map
                (fun p ->
                  if Sys.is_directory p then
                    Sys.readdir p |> Array.to_list
                    |> List.sort String.compare
                    |> List.filter_map (fun f ->
                           let full = Filename.concat p f in
                           if Sys.is_directory full then None else Some full)
                  else [ p ])
                corpus
            in
            match paths with
            | [] ->
                Fmt.epr "rml: no corpus inputs (use --corpus FILE-or-DIR)@.";
                2
            | paths -> (
                let ok = ref 0 and failed = ref 0 in
                List.iter
                  (fun path ->
                    let text =
                      In_channel.with_open_bin path In_channel.input_all
                    in
                    match (Rats.Engine.run eng text).Rats.Engine.result with
                    | Ok _ -> incr ok
                    | Error _ -> incr failed)
                  paths;
                Fmt.pr "corpus: %d inputs (%d ok, %d failed)@."
                  (List.length paths) !ok !failed;
                match Rats.Engine.observation eng with
                | Some o ->
                    Fmt.pr "%a" Rats.Observe.pp_coverage o;
                    let dead_prods, dead_arms = Rats.Observe.unexercised o in
                    if strict && (dead_prods <> [] || dead_arms <> []) then 1
                    else 0
                | None ->
                    Fmt.epr "rml: internal error: no coverage was recorded@.";
                    exit_internal)))
  in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:
         "Run a corpus through one observed engine and report grammar \
          coverage: productions and choice alternatives never exercised, \
          each with its defining module.")
    Term.(
      const run $ files_arg $ builtin_arg $ root_arg $ start_arg
      $ optimize_arg $ config_arg $ engine_arg $ corpus_arg $ strict_arg)

let bytecode_cmd =
  let run files builtin root start optimize config =
    guarded @@ fun () ->
    match compose_from files builtin root start with
    | Error ds -> print_errors ds
    | Ok g -> (
        let g = if optimize then Rats.Pipeline.optimize g else g in
        match Rats.Vm.prepare ~config g with
        | Error ds -> print_errors ds
        | Ok vm ->
            Fmt.pr "; %d instructions, %d memo slots, %s@.%s"
              (Rats.Vm.instruction_count vm)
              (Rats.Vm.memo_slots vm)
              (Rats.Config.describe (Rats.Vm.config vm))
              (Rats.Vm.disassemble vm);
            0)
  in
  Cmd.v
    (Cmd.info "bytecode"
       ~doc:"Compile the grammar to bytecode and print the disassembly.")
    Term.(
      const run $ files_arg $ builtin_arg $ root_arg $ start_arg
      $ optimize_arg $ config_arg)

let generate_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the generated parser here (stdout by default).")
  in
  let mli_arg =
    Arg.(
      value & flag
      & info [ "mli" ]
          ~doc:"Also write the matching .mli next to the output file.")
  in
  let run files builtin root start optimize config out mli =
    guarded @@ fun () ->
    match compose_from files builtin root start with
    | Error ds -> print_errors ds
    | Ok g -> (
        let g = if optimize then Rats.Pipeline.optimize g else g in
        match Rats.Emit.grammar_module ~config g with
        | Error ds -> print_errors ds
        | Ok code ->
            (match out with
            | None -> print_string code
            | Some path ->
                Out_channel.with_open_bin path (fun oc ->
                    Out_channel.output_string oc code);
                if mli && Filename.check_suffix path ".ml" then
                  Out_channel.with_open_bin (path ^ "i") (fun oc ->
                      Out_channel.output_string oc (Rats.Emit.interface ())));
            0)
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate a self-contained OCaml parser module for the grammar.")
    Term.(
      const run $ files_arg $ builtin_arg $ root_arg $ start_arg
      $ optimize_arg $ config_arg $ out_arg $ mli_arg)

let () =
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
           parse_cmd; profile_cmd; trace_cmd; coverage_cmd; bytecode_cmd;
           generate_cmd; fmt_cmd;
         ])
  in
  (* cmdliner reports CLI misuse as 124 and its own internal errors as
     125; fold them into the documented code space. *)
  exit (match code with 124 -> 2 | 125 -> exit_internal | c -> c)
