(** One run of the pipeline, as a value.

    A {!t} names a grammar and what to do with it. {!exec} carries it
    out in one place: load the modules, compose, optimize (or load a
    built-in composed at build time, with its facts, {!analysis_of}), erase to a
    recognizer when asked, prepare the engine, read the input, run,
    print, and map the outcome to an exit code. [rml parse], [profile],
    [trace] and [coverage] only map their flags onto a spec.

    The mode's payload holds only the settings that mode accepts, so
    most incompatible flags have no representation; {!of_flags} refuses
    the rest. Budgets ({!grammar.limits}) belong to the run: the engine
    is prepared once and every run, deadline slices included, gets them
    through {!Rats_runtime.Engine.with_limits}. *)

open Rats_support
open Rats_peg
open Rats_runtime

(** {1 Exit codes}

    [0] success, [2] usage, [3] grammar, parse or io failure, [4]
    resource exhaustion, [5] internal error. *)

val exit_usage : int
val exit_internal : int

val guarded : (unit -> int) -> int
(** [f ()], with an escaping exception reported on stderr and mapped to
    its exit code: {!Diagnostic.Fail} or [Sys_error] [3],
    [Stack_overflow] or [Out_of_memory] [4], anything else [5]. *)

val print_errors : Diagnostic.t list -> int
(** Print each diagnostic on stderr; [3]. *)

(** {1 Grammars} *)

type builtin = { texts : string list; root : string }

val builtins : (string * builtin) list
(** The grammars [--builtin NAME] selects: module sources and the root
    module to compose. *)

val modules_of_string :
  ?name:string -> string -> (Rats_modules.Ast.t list, Diagnostic.t list) result

val modules_of_file : string -> (Rats_modules.Ast.t list, Diagnostic.t list) result

val load_modules :
  string list -> string option -> (Rats_modules.Ast.t list, Diagnostic.t list) result
(** [load_modules files builtin]: the built-in's modules, then each
    file's. An error when both are absent or the built-in is unknown. *)

val compose_modules :
  ?start:string -> ?args:string list -> root:string -> Rats_modules.Ast.t list ->
  (Grammar.t, Diagnostic.t list) result
(** Build a library from the modules and flatten it at [root]. *)

type grammar = {
  files : string list;  (** [.rats] files, composed after the built-in *)
  builtin : string option;  (** a name from {!builtins} *)
  root : string option;  (** defaults to the built-in's root *)
  start : string option;
  leftrec : bool;  (** repair direct left recursion before optimizing ([-L]) *)
  optimize : bool;  (** run the optimizer pipeline *)
  recognize : bool;  (** erase every kind to [Void] ({!Batch.recognizer_erase}) *)
  config : Config.t;  (** its limits are ignored: [limits] are the run's *)
  limits : Limits.t;
}

val default : grammar
(** No modules, no optimization, {!Config.optimized}, {!Limits.unlimited}. *)

val compose : grammar -> (Grammar.t, Diagnostic.t list) result
(** Load and compose, without repairing or optimizing. *)

type snapshot = string -> optimized:bool -> Analysis.t option
(** A lookup of built-ins composed ahead of time: [find name ~optimized]
    is what {!analysis_of} would build for [--builtin name], with
    [optimize = optimized] and nothing else set, or [None] when it holds
    no such grammar. The analysis carries the facts preparing and
    compiling the grammar read, so an engine prepared from it computes
    none; each call must return a fresh one, which the engine it is
    prepared for then owns. [rml] passes the one its build generates
    ([Rats_snapshot.find]). *)

val analysis_of : ?snapshot:snapshot -> grammar -> (Analysis.t, Diagnostic.t list) result
(** The grammar a spec runs, with its facts: composed, repaired when
    [leftrec], optimized when [optimize], then erased to a recognizer
    when [recognize]. When the spec is exactly a built-in (no [files],
    [root], [start] or [leftrec]), the [snapshot] is asked first and the
    composition and optimization are skipped when it answers; its facts
    are kept unless the grammar is erased. A composed or erased grammar
    starts from no facts ({!Analysis.analyze}). *)

val grammar_of : ?snapshot:snapshot -> grammar -> (Grammar.t, Diagnostic.t list) result
(** The grammar of {!analysis_of}. *)

(** {1 Specs} *)

type input =
  | File of string
  | Mapped of string  (** memory-mapped and parsed in place *)
  | Stdin  (** read in chunks that stop at the input-byte budget *)

type show = { quiet : bool  (** no tree *); stats : bool; stats_json : bool }

type flame_format = Speedscope | Chrome

(** How a single document is observed. *)
type observe =
  | Watch of { profile : bool; ring : int option; timeout : float option }
      (** [rml parse]: print the profile table; dump a ring of the last
          [ring] events to stderr when the parse fails; give up after
          [timeout] seconds ({!Rats_runtime.Engine.with_deadline}). Under
          a timeout, profile and ring observe every fuel slice. *)
  | Enter_exit
      (** [rml parse --trace]: production enter/exit events, capped at
          500 lines, from {!Rats_runtime.Engine.trace} *)
  | Profile of { top : int; flame : (string * flame_format) option }
      (** [rml profile]: the [top] costliest productions (all when
          [top <= 0]), and a flamegraph file *)
  | Events of { ring : int; last : int option }
      (** [rml trace]: the last [last] of a ring of [ring] events,
          printed whether or not the parse fails *)

type batch = {
  source : string;  (** a manifest path, or ["-"] for standard input *)
  sep : char;  (** separator of the ["-"] stream *)
  faults : Faults.t;
  doc_timeout : float option;  (** seconds *)
  metrics : string option;  (** a [.prom] or [.json] path *)
  trace_out : string option;  (** a Chrome trace path *)
  progress : bool;  (** a heartbeat on stderr *)
}

type mode =
  | Document of { input : input; observe : observe; show : show }
  | Edits of { input : input; script : string; profile : bool; ring : int option; show : show }
      (** replay the edit script at [script] through a {!Session}, as
          [Watch] without a timeout *)
  | Batch of batch  (** {!Batch.run}: one JSONL record per document *)
  | Corpus of { paths : string list; strict : bool }
      (** [rml coverage]: files, and the files of each directory, through
          one coverage-observed engine; with [strict], exit [1] when
          anything stays unexercised *)

type t = { grammar : grammar; mode : mode }

(** {1 From [rml parse] flags} *)

type flags = {
  input : string option;  (** [-i FILE]; ["-"] is standard input *)
  stdin : bool;
  mmap : bool;
  edits : string option;
  trace : bool;
  profile : bool;
  trace_ring : int option;
  timeout : float option;
  quiet : bool;
  stats : bool;
  stats_json : bool;
  batch : string option;
  batch_sep : char option;
  faults : string option;
  doc_timeout : float option;
  metrics : string option;
  trace_out : string option;
  progress : bool;
}

val no_flags : flags

val of_flags : grammar -> flags -> (t, string) result
(** The mode rule (README, "Command line"). A batch takes [--batch-sep],
    [--faults], [--doc-timeout], [--metrics] (a [.prom] or [.json]
    path), [--trace-out] and [--progress], each of which requires it,
    and [--recognize]. An edit script takes one input, [--profile],
    [--trace-ring], [--stats] and [--stats-json]. A single document takes
    one input ([--mmap] only for a file), where [--trace] excludes
    [--profile], [--trace-ring] and [--timeout]. [Error] is the usage
    message for anything else. Never raises. *)

val exec : ?snapshot:snapshot -> t -> int
(** Run the spec on its {!analysis_of} and return the exit code: [0], [1]
    (an unexercised grammar under [Corpus]'s [strict]), [2] (a malformed
    edit script, an empty corpus), [3], [4] or [5]; a batch returns
    {!Batch.exit_code}. Output goes to stdout and stderr as [rml] prints
    it. Never raises. *)
