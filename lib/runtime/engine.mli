(** The packrat parsing engine.

    {!prepare} turns a closed, well-formed grammar into a network of
    closures — one recognizer and one value-building matcher per
    production — with memoization wrappers, choice-dispatch tables and
    state-transaction handling chosen by the {!Config.t}. Each matcher
    is compiled on its production's first call in its mode, so a run
    pays only for what its input reaches; {!compile_all} compiles the
    rest. {!run} then parses an input string. An unobserved engine may
    be run from several domains at once, first calls included.

    The engine rejects grammars that fail {!Rats_peg.Analysis.check}
    (left recursion, vacuous repetition, dangling references), exactly as
    Rats! refuses to generate parsers for them.

    Stateful productions (those whose bodies reach a [Record] or
    [Member]) are memoized like any other, but each entry carries the
    state version it was computed at and hits only at that version, so
    a hit never hides a change of the state tables. State changes are
    transactional — rolled back when a choice alternative, repetition
    step or predicate backtracks. *)

open Rats_support
open Rats_peg

type t

val prepare : ?config:Config.t -> Grammar.t -> (t, Diagnostic.t list) result
(** Default config is {!Config.optimized}. [prepare ?config g] is
    {!prepare_analysis} of [Analysis.analyze g]: a grammar without facts. *)

val prepare_analysis :
  ?config:Config.t -> Analysis.t -> (t, Diagnostic.t list) result
(** Prepare the analysis's grammar, starting from the facts it already
    holds: a grammar loaded with its facts (the built-in snapshot)
    recomputes none of them. The engine owns the analysis from here on
    and fills in the facts its compilation reads, under its own lock;
    no other engine, and no other caller, may use it meanwhile. *)

val compile_all : t -> unit
(** Compile every production's value-building and recognizer matcher
    now rather than on first call. Afterwards the engine's analysis
    holds every fact compiling reads, whatever the configuration:
    [gen.exe] ships the facts in this state. *)

val prepare_exn : ?config:Config.t -> Grammar.t -> t
val compiled_bodies : t -> int * int
(** How many productions have their value-building matcher compiled,
    and how many their recognizer: what the runs so far called, or
    every production after {!compile_all}. *)

val config : t -> Config.t

val with_limits : t -> Limits.t -> t
(** [t] under the budgets [l]: a copy sharing the compiled matchers,
    the parked memo store and the observation sink, since budgets are
    read only when a run starts. *)

val grammar : t -> Grammar.t

val memo_slots : t -> int
(** Number of productions that received a memo slot under this
    configuration — the chunk width of E5. *)

val memo_value_slots : t -> int
(** The subset of memo slots that carry a semantic value (the arena's
    vmap); enters {!Limits.chunk_cost}, so a value-free engine charges
    its memo budget less per position. *)

val arena_cap : t -> int
(** Chunks with backing rows in this engine's pooled memo arena — the
    allocated high-water footprint, which survives between runs because
    parking a store releases values, not rows. [0] before the first
    run. The batch runner reports this as an occupancy gauge. *)

val observation : t -> Observe.t option
(** The observation sink created at preparation when
    {!Config.t.observe} enables any capability; [None] otherwise. The
    sink accumulates across every run of this engine — coverage over a
    corpus is many runs into one sink. *)

type outcome = {
  result : (Value.t, Parse_error.t) result;
  stats : Stats.t;
  consumed : int;
      (** offset reached by the start production, or [-1] when it failed
          outright — lets callers do longest-prefix parsing with
          [~require_eof:false] *)
}

val run : t -> ?start:string -> ?require_eof:bool -> string -> outcome
(** [run t input] parses [input] from the start production ([start]
    overrides by flat production name). With [require_eof] (default
    [true]) the start production must consume the whole input. *)

val run_input : t -> ?start:string -> ?require_eof:bool -> Input.t -> outcome
(** {!run} over an {!Input.t} buffer — the general entry point; [run]
    wraps the string case. A Bigarray-backed input
    (e.g. {!Input.map_file}) is parsed in place with no copy; results,
    [Stats], cost-model accounting and error reports are byte-identical
    across representations. *)

val parse : t -> ?start:string -> string -> (Value.t, Parse_error.t) result
val accepts : t -> ?start:string -> string -> bool

(** {1 Persistent memo stores}

    The machinery under [Rats.Session]: a store keeps the memo of the
    last run so that a later run over an edited buffer reuses every entry
    whose computation never looked at the damaged bytes. *)

type store
(** A memo store ({!Memo_store.t}) tied to one engine and one evolving
    input buffer. *)

val new_store : t -> store
(** An empty store for this engine; populated by the first
    {!run_store}. *)

val edit_store : t -> store -> start:int -> old_len:int -> new_len:int -> int * int
(** [edit_store t s] is {!Memo_store.edit}[ s]: it adjusts the store for
    a splice and returns the [(surviving, relocated)] entry counts. *)

val for_session : t -> t
(** The engine a session's incremental runs use: [t] itself, unless [t]
    honours transient hints under a memo strategy and some transient
    production is not a terminal ({!Rats_peg.Analysis_ctx.terminals}),
    on no reference cycle ({!Rats_peg.Analysis.recursive}), not
    stateful and not the start production. Such a production is
    called at most once per position in one parse, but at the same
    (possibly relocated) position again on every reparse, so the
    session engine gives it a memo slot as well. It shares [t]'s
    configuration, limits, observation sink and expected-set names,
    and compiles its own bodies on first call; [t] is unchanged. *)

val run_store : t -> store -> ?start:string -> ?require_eof:bool -> string -> outcome
(** Parse reading and refilling the store, in one untraced pass. On
    success the result is identical to a cold {!run} (values compare
    equal via [Value.equal]; spans inside reused subtrees are {e not}
    shifted — see DESIGN.md). On failure the expected set may be
    incomplete because memo hits hide part of the trace;
    [Rats.Session.reparse] re-parses cold in that case for exact error
    parity. *)

val run_store_input :
  t -> store -> ?start:string -> ?require_eof:bool -> Input.t -> outcome
(** {!run_store} over an {!Input.t} buffer. *)

val backstopped : (unit -> outcome) -> outcome
(** [run ()], with a [Stack_overflow] or [Out_of_memory] that escapes
    the run's own governor (unlimited limits on hostile input) turned
    into a resource-exhausted outcome at offset 0. *)

val with_deadline :
  now_ns:(unit -> int) -> deadline_ns:int -> t -> (t -> outcome) -> outcome * bool
(** [run] under a signal-free deadline: [run] gets {!with_limits} copies
    of [t] whose fuel is a slice of [t]'s budget, from [min budget 65536],
    doubled while the outcome is a fuel trip short of the budget and
    [now_ns ()] (read only between slices) is before [deadline_ns].
    Returns the last outcome and whether the deadline expired. A trip at
    the full budget is never retried: the smaller budget wins. *)

(** {1 Tracing}

    Rats!'s verbose mode: watch the parser work, production by
    production. Tracing prepares its own engine (the normal one carries
    no per-invocation hooks, so tracing costs nothing when unused). *)

type trace_event = {
  prod : string;  (** production being tried *)
  at : int;  (** input offset *)
  depth : int;  (** invocation nesting depth *)
  outcome : int option;
      (** [None] on entry; [Some stop] on success (the new offset);
          [Some (-1)] on failure *)
}

val trace :
  ?config:Config.t ->
  ?start:string ->
  ?require_eof:bool ->
  on_event:(trace_event -> unit) ->
  Grammar.t ->
  string ->
  (outcome, Diagnostic.t list) result
(** [trace ~on_event g input] parses [input], calling [on_event] once on
    entry to every value-building production invocation and once on exit
    (memo hits included — they are invocations; recognizer-mode calls
    inside predicates under [lean_values] are not, so a non-lean
    [config] such as {!Config.packrat} gives the most complete view).
    Events of one invocation share [prod], [at] and [depth]. *)
