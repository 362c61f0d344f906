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
module Batch = Batch
module Run = Run

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

let modules_of_string = Run.modules_of_string
let modules_of_file = Run.modules_of_file

let compose = Run.compose_modules

let parser_of ?(optimize = true) ?(config = Config.optimized) ?limits g =
  let config =
    match limits with Some l -> Config.with_limits l config | None -> config
  in
  match Driver.run (if optimize then Pipeline.passes () else []) g with
  | Error ds -> Error ds
  | Ok o -> Engine.prepare ~config o.Driver.grammar

let parse_input eng ?start input =
  (Engine.backstopped (fun () -> Engine.run_input eng ?start input))
    .Engine.result

let parse eng ?start input = parse_input eng ?start (Input.of_string input)

module Session = Session

let version = "0.9.0"
