module Span = Rats_support.Span
module Input = Rats_support.Input
module Source = Rats_support.Source
module Diagnostic = Rats_support.Diagnostic
module Rng = Rats_support.Rng
module Faults = Rats_support.Faults
module Charset = Rats_peg.Charset
module Value = Rats_peg.Value
module Attr = Rats_peg.Attr
module Expr = Rats_peg.Expr
module Production = Rats_peg.Production
module Grammar = Rats_peg.Grammar
module Analysis = Rats_peg.Analysis
module Analysis_ctx = Rats_peg.Analysis_ctx
module Pretty = Rats_peg.Pretty
module Builder = Rats_peg.Builder
module Lint = Rats_peg.Lint
module Module_ast = Rats_modules.Ast
module Resolve = Rats_modules.Resolve
module Meta_parser = Rats_meta.Parser
module Meta_print = Rats_meta.Print
module Config = Rats_runtime.Config
module Limits = Rats_runtime.Limits
module Stats = Rats_runtime.Stats
module Parse_error = Rats_runtime.Parse_error
module Engine = Rats_runtime.Engine
module Expected = Rats_runtime.Expected
module Memo_arena = Rats_runtime.Memo_arena
module Observe = Rats_runtime.Observe
module Profile = Rats_runtime.Profile
module Metrics = Rats_runtime.Metrics
module Provenance = Rats_peg.Provenance
module Desugar = Rats_optimize.Desugar
module Passes = Rats_optimize.Passes
module Pass = Rats_optimize.Pass
module Driver = Rats_optimize.Driver
module Pipeline = Rats_optimize.Pipeline
module Emit = Rats_codegen.Emit
module Batch = Batch

module Grammars = struct
  module Calc = Rats_grammars.Calc
  module Json = Rats_grammars.Json
  module Minic = Rats_grammars.Minic
  module Minijava = Rats_grammars.Minijava
  module Metagrammar = Rats_grammars.Metagrammar
  module Path = Rats_grammars.Path
  module Corpus = Rats_grammars.Corpus
  module Loader = Rats_grammars.Loader
end

type 'a or_errors = ('a, Diagnostic.t list) result

let modules_of_string ?name text =
  match Meta_parser.parse_modules_string ?name text with
  | Ok ms -> Ok ms
  | Error d -> Error [ d ]

let modules_of_file path =
  match Source.read_file path with
  | Error msg -> Error [ Diagnostic.error msg ]
  | Ok src -> (
      match Meta_parser.parse_modules src with
      | Ok ms -> Ok ms
      | Error d -> Error [ d ])

let compose ?start ?args ~root modules =
  match Resolve.library modules with
  | Error ds -> Error ds
  | Ok lib -> (
      match Resolve.resolve lib ~root ?args ?start () with
      | Ok (g, _) -> Ok g
      | Error ds -> Error ds)

let parser_of ?(optimize = true) ?passes ?(config = Config.optimized) ?limits g
    =
  let config =
    match limits with Some l -> Config.with_limits l config | None -> config
  in
  let passes =
    match passes with
    | Some ps -> ps
    | None -> if optimize then Pipeline.passes () else []
  in
  match Driver.run passes g with
  | Error ds -> Error ds
  | Ok o -> Engine.prepare ~config o.Driver.grammar

(* The engines convert runaway recursion and allocation into structured
   errors themselves; this is the last-resort backstop for anything that
   slips past them (e.g. unlimited configs on hostile input). *)
let parse_input eng ?start input =
  try (Engine.run_input eng ?start input).Engine.result with
  | Stack_overflow ->
      Error
        (Parse_error.resource_exhausted ~which:Limits.Depth ~at:0 ~consumed:0
           ())
  | Out_of_memory ->
      Error
        (Parse_error.resource_exhausted ~which:Limits.Memory ~at:0 ~consumed:0
           ())

let parse eng ?start input = parse_input eng ?start (Input.of_string input)

module Session = struct
  type t = {
    eng : Engine.t;
    start : string option;
    mutable source : Source.t;  (* buffer + patched line-start index *)
    store : Engine.store;
    mutable relocated : int;  (* accumulated across edits since reparse *)
    mutable survivors : int;  (* entries alive after the latest edit *)
    stats : Stats.t;  (* counters of the last reparse *)
    mutable cold_fallbacks : int;
  }

  let create_source ?start eng source =
    {
      eng;
      start;
      source;
      store = Engine.new_store eng;
      relocated = 0;
      survivors = 0;
      stats = Stats.create ();
      cold_fallbacks = 0;
    }

  let create ?(name = "<session>") ?start eng text =
    create_source ?start eng (Source.of_string ~name text)

  let source t = t.source
  let text t = Source.text t.source
  let length t = Source.length t.source

  let apply_edit t ~start ~old_len ~replacement =
    (match Source.apply_edit t.source ~start ~old_len ~replacement with
    | s -> t.source <- s
    | exception Invalid_argument _ ->
        invalid_arg "Rats.Session.apply_edit: edit out of bounds");
    let survivors, relocated =
      Engine.edit_store t.eng t.store ~start ~old_len
        ~new_len:(String.length replacement)
    in
    t.survivors <- survivors;
    t.relocated <- t.relocated + relocated

  (* Incremental pass first; any failure falls back to a cold parse so
     error reports (farthest position, expected set) are identical to a
     from-scratch parse by construction — memo hits in the incremental
     pass hide part of the expected-set trace. *)
  let reparse t =
    let backstopped f =
      try f () with
      | Stack_overflow ->
          {
            Engine.result =
              Error
                (Parse_error.resource_exhausted ~which:Limits.Depth ~at:0
                   ~consumed:0 ());
            stats = Stats.create ();
            consumed = -1;
          }
      | Out_of_memory ->
          {
            Engine.result =
              Error
                (Parse_error.resource_exhausted ~which:Limits.Memory ~at:0
                   ~consumed:0 ());
            stats = Stats.create ();
            consumed = -1;
          }
    in
    (* An observed engine sees the session machinery too: the ring
       shows what the store contributed before the run's own events. *)
    (match Engine.observation t.eng with
    | Some o when t.survivors > 0 || t.relocated > 0 ->
        Observe.session_reuse o ~reused:t.survivors ~relocated:t.relocated
    | _ -> ());
    let o =
      backstopped (fun () ->
          Engine.run_store_input t.eng t.store ?start:t.start
            (Source.input t.source))
    in
    let reused = t.survivors and relocated = t.relocated in
    t.relocated <- 0;
    t.survivors <- 0;
    let o =
      match o.Engine.result with
      | Ok _ -> o
      | Error _ ->
          t.cold_fallbacks <- t.cold_fallbacks + 1;
          backstopped (fun () ->
              Engine.run_input t.eng ?start:t.start (Source.input t.source))
    in
    Stats.reset t.stats;
    Stats.add t.stats o.Engine.stats;
    t.stats.Stats.memo_reused <- reused;
    t.stats.Stats.memo_relocated <- relocated;
    o.Engine.result

  let stats t = t.stats
  let cold_fallbacks t = t.cold_fallbacks
end

let generate ?(optimize = true) ?config g =
  let g = if optimize then Pipeline.optimize g else g in
  Emit.grammar_module ?config g

let version = "0.9.0"
