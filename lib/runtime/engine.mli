(** The packrat parsing engine.

    {!prepare} compiles a closed, well-formed grammar into a network of
    closures — one recognizer and one value-building matcher per
    production — with memoization wrappers, choice-dispatch tables and
    state-transaction handling chosen by the {!Config.t}. {!run} then
    parses an input string.

    The engine rejects grammars that fail {!Rats_peg.Analysis.check}
    (left recursion, vacuous repetition, dangling references), exactly as
    Rats! refuses to generate parsers for them.

    Stateful productions (those using [Record]/[Member]) are never
    memoized regardless of configuration: their outcome depends on the
    state tables, and Rats! likewise exempts stateful productions from
    memoization. State changes are transactional — rolled back when a
    choice alternative, repetition step or predicate backtracks. *)

open Rats_support
open Rats_peg

type t

val prepare : ?config:Config.t -> Grammar.t -> (t, Diagnostic.t list) result
(** Default config is {!Config.optimized}. *)

val prepare_exn : ?config:Config.t -> Grammar.t -> t
val config : t -> Config.t
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
    parking a scratch releases values, not rows. [0] before the first
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

    The machinery under [Rats.Session]: a store owns the memo structures
    of the last run so a later run over an edited buffer reuses every
    entry whose computation never looked at the damaged bytes. Entries
    record their {e examined extent} — the farthest input position their
    computation inspected, end-of-input checks included — which is what
    makes retention sound under lookahead predicates: an entry is kept
    only if everything it ever looked at is strictly before the damage,
    and entries at or past the damage end are relocated by the length
    delta (sound because a production never examines positions before
    its own start). Stateful productions rely on the state-version
    stamps instead: versions grow monotonically across a session's runs,
    so their old entries can never falsely hit. Reused entries re-count
    against {!Limits.t.max_memo_bytes} when the next run starts. *)

type store
(** A memo store tied to one engine and one evolving input buffer. *)

val new_store : t -> store
(** An empty store for this engine; populated by the first
    {!run_store}. *)

val edit_store : t -> store -> start:int -> old_len:int -> new_len:int -> int * int
(** [edit_store t s ~start ~old_len ~new_len] adjusts the store for a
    splice replacing [old_len] bytes at [start] with [new_len] bytes.
    Returns [(surviving, relocated)] entry counts — chunks under chunked
    memo, table entries otherwise; [relocated] counts only entries whose
    position actually moved, so same-length replacements relocate
    nothing. Raises [Invalid_argument] if the edit is out of bounds. *)

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
