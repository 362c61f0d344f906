(** rats-ml: modular syntax for extensible parsers.

    One-stop facade over the library stack. The typical flow (each stage
    reports failures as values — none of them raise):

    {[
      let ( let* ) = Result.bind in
      let* modules = Rats.modules_of_string my_grammar_text in
      let* grammar = Rats.compose modules ~root:"my.Main" in
      let* parser = Rats.parser_of ~limits:Rats.Limits.hardened grammar in
      match Rats.parse parser input with
      | Ok tree -> ...
      | Error e -> print_endline (Rats.Parse_error.message e)
    ]}

    Every underlying component is re-exported for direct use. *)

(** {1 Re-exports} *)

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
(** Fault-isolated batch parsing — [rml parse --batch]. See {!Batch}. *)

module Run = Run
(** One run of the pipeline as a value — what [rml] executes. See {!Run}. *)

module Grammars : sig
  module Calc = Rats_grammars.Calc
  module Json = Rats_grammars.Json
  module Minic = Rats_grammars.Minic
  module Minijava = Rats_grammars.Minijava
  module Metagrammar = Rats_grammars.Metagrammar
  module Path = Rats_grammars.Path
  module Corpus = Rats_grammars.Corpus
  module Loader = Rats_grammars.Loader
end

(** {1 Convenience pipeline} *)

type 'a or_errors = ('a, Diagnostic.t list) result

val modules_of_string : ?name:string -> string -> Module_ast.t list or_errors
(** Parse grammar-module source text. *)

val modules_of_file : string -> Module_ast.t list or_errors

val compose :
  ?start:string ->
  ?args:string list ->
  root:string ->
  Module_ast.t list ->
  Grammar.t or_errors
(** Build a library from the modules and flatten it at [root]. *)

val parser_of :
  ?optimize:bool ->
  ?passes:Pass.t list ->
  ?config:Config.t ->
  ?limits:Limits.t ->
  Grammar.t ->
  Engine.t or_errors
(** Prepare an engine. The grammar first goes through the gated
    optimizer {!Driver} — ill-formed grammars (left recursion, dangling
    references) fail fast here, before any optimization — running
    [passes] when given, else the full registry pipeline when [optimize]
    (default [true]), else no passes at all. The default [config] is
    {!Config.optimized}; [limits] (default: the config's own, normally
    {!Limits.unlimited}) overrides its resource budget — pass
    {!Limits.hardened} when the input is untrusted. *)

val parse :
  Engine.t -> ?start:string -> string -> (Value.t, Parse_error.t) result
(** Parse with the engine's configured {!Limits.t}. Never raises on any
    input: budget exhaustion comes back as a {!Parse_error.t} whose
    [kind] is {!Parse_error.kind.Resource_exhausted}, and an uncaught
    [Stack_overflow]/[Out_of_memory] from an {e unlimited} engine is
    converted to the same shape as a last resort. *)

val parse_input :
  Engine.t -> ?start:string -> Input.t -> (Value.t, Parse_error.t) result
(** {!parse} over an {!Input.t} buffer — zero-copy for Bigarray-backed
    inputs such as {!Input.map_file}; {!parse} wraps the string case.
    Results and error reports are byte-identical across the two
    representations. *)

(** {1 Incremental parse sessions}

    A session owns a compiled parser, the current input buffer and a
    persistent memo store, so that re-parsing after a small edit reuses
    the memo entries whose computations never examined the changed
    bytes (entries strictly before the damage are kept; entries past it
    are relocated by the length delta; see DESIGN.md for the
    invariants). For any grammar, input and edit script, {!Session.reparse}
    returns exactly what a cold {!parse} of the final buffer returns —
    same value under {!Value.equal}, same farthest-failure position,
    same expected set. *)

module Session = Session

val generate :
  ?optimize:bool -> ?config:Config.t -> Grammar.t -> string or_errors
(** Emit a self-contained OCaml parser module for the grammar. *)

val version : string
