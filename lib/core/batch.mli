(** Fault-isolated batch parsing.

    The single-process stepping stone toward [rml serve]: compile a
    grammar once, stream any number of documents through it, and turn
    {e every} per-document failure — syntax errors, resource trips,
    truncated or failing reads, even engine bugs — into a structured
    result record instead of a process death. One document can never
    take the batch down: the worst a hostile document gets is its own
    [internal] record from the last-resort backstop.

    Two robustness mechanisms frame each document:

    {b Budgets and deadlines.} Every document runs under its own
    {!Rats_runtime.Limits.t} snapshot plus an optional monotonic
    deadline, run by {!Rats_runtime.Engine.with_deadline} as for
    [--timeout]: the parse runs under a bounded fuel slice that doubles
    while the clock allows, so a stuck parse is abandoned at a
    deterministic grammar-level point, signal-free. Budgets are set per
    run, so no slice or fault cap recompiles the grammar.

    {b The degradation ladder.} A document that trips the fuel, depth
    or memory budget is retried one rung down: {e recognizer mode},
    the same grammar with every production kind erased to [Void].
    Kinds only shape semantic values, so the verdict on any document is
    unchanged — but every memo slot becomes value-free (PR 6's [vmap]),
    and the value-aware {!Rats_runtime.Limits.chunk_cost} then charges
    each memoized position markedly less. The same memo budget covers
    roughly twice the input before degrading, which attacks the
    canonical reason a budgeted parse ran out of fuel in the first
    place: memo degradation re-runs invocations. The record says which
    rung answered; only when the bottom rung also trips does the
    document hard-fail. Syntax errors and input-cap trips never
    descend: they are deterministic, a cheaper rerun cannot change
    them. *)

open Rats_support
open Rats_peg
open Rats_runtime

(** Where documents come from. *)
type source =
  | Manifest of string
      (** a file listing one document path per line; blank lines and
          [#] comments are skipped *)
  | Channel of { ic : in_channel; sep : char }
      (** delimited documents streamed from a channel (NUL or newline
          separated); never slurped — per-document buffering is bounded
          by the input-byte cap *)
  | Docs of (string * string) list  (** in-memory [(name, contents)] *)

type rung = Full | Recognizer

val rung_name : rung -> string

val recognizer_erase : Grammar.t -> Grammar.t option
(** The same grammar with every production's kind erased to [Void] —
    the recognizer rung of the degradation ladder, also what [rml
    parse --recognize] runs. Kinds only shape semantic values, so
    verdicts, consumed bytes and expected sets are unchanged; every
    memo slot becomes value-free and, under [Config.lean_values], the
    whole parse runs on the allocation-free lean matchers. [None] only
    if the rebuilt grammar fails well-formedness, which a composed
    grammar cannot. *)

type fail_class =
  | Syntax  (** the document does not match the grammar *)
  | Resource of string
      (** a budget ran out; carries the budget name ([fuel], [depth],
          [memory], [input]) or ["deadline"] *)
  | Io  (** the document could not be read (missing file, injected or
            real I/O failure) *)
  | Internal
      (** the backstop: an exception escaped the engine — a bug, but a
          contained one *)

type record = {
  r_index : int;
  r_name : string;
  r_bytes : int;  (** bytes delivered to the parser; [-1] when unread *)
  r_ok : bool;
  r_rung : rung;  (** the rung that answered *)
  r_retried : bool;  (** the ladder descended at least once *)
  r_fail : fail_class option;  (** [None] iff [r_ok] *)
  r_which : string option;  (** budget name for [Resource] failures *)
  r_position : int;  (** farthest-failure offset; [-1] when n/a *)
  r_message : string;  (** rendered error; [""] when ok *)
  r_ms : float;  (** wall time for the document, retries included *)
  r_memo_degraded : int;
      (** summed {!Stats.t.memo_degraded} across every engine run this
          document triggered (slice reruns and ladder retries included) *)
  r_fuel_used : int;  (** summed {!Stats.t.fuel_used}, same scope *)
}

type summary = {
  s_docs : int;
  s_ok : int;
  s_failed : int;
  s_degraded : int;  (** documents the ladder descended for *)
  s_rung_full : int;  (** documents answered on the full rung *)
  s_rung_recognizer : int;
  s_syntax : int;
  s_resource : int;
  s_io : int;
  s_internal : int;
  s_p50_ms : float;
  s_p99_ms : float;
  s_total_ms : float;
  s_memo_degraded : int;  (** summed over all records *)
  s_cold_fallbacks : int;
      (** {!Rats.Session} cold-parse fallbacks. The one-shot runner
          parses each document cold, so this is [0] today; the field
          keeps the summary schema aligned with session-backed serving
          so the trajectory can watch it. *)
}

type report = { records : record list; summary : summary }

val run :
  ?config:Config.t ->
  ?limits:Limits.t ->
  ?start:string ->
  ?deadline_ns:int ->
  ?faults:Faults.t ->
  ?now_ns:(unit -> int) ->
  ?metrics:Metrics.t ->
  ?spans:Profile.Spans.t ->
  ?on_record:(record -> unit) ->
  Grammar.t ->
  source ->
  (report, Diagnostic.t list) result
(** [run g src] compiles [g] once (default config
    {!Config.optimized}; [limits] overrides its budgets, as in
    {!Rats.parser_of}) and parses every document of [src] under
    per-document isolation.

    [deadline_ns] arms a monotonic per-document deadline; [now_ns]
    overrides the clock (default {!Profile.now_ns}) — tests inject a
    synthetic clock to make records, including [r_ms], fully
    deterministic. [faults] applies a {!Faults.t} plan: read faults in
    the document read path, fuel/memo caps folded into that document's
    limits (so the ordinary govern brackets trip them), clock skew
    added to every deadline reading after the one that armed it.

    [metrics] opts the run into pipeline telemetry: per-document
    latency (µs), fuel, document-byte and estimated memo-byte
    histograms, rung / fail-class / retry counters
    ([rml_batch_docs_total] by status, [rml_batch_fail_total] by
    class, [rml_batch_rung_total], [rml_batch_retries_total]), and
    GC + memo-arena occupancy gauges, all registered in the given
    {!Rats_runtime.Metrics.t}. Recording is derived entirely from the
    finished record and run-scoped accumulators — it adds {e no} clock
    reads, so the JSONL stream is unchanged (byte-identical under a
    synthetic [now_ns]). When absent, the record path is never
    entered: the PR 5 zero-cost-when-off contract at pipeline level.

    [spans] opts the run into a batch-level chrome trace
    ({!Rats_runtime.Profile.Spans}): one span for the grammar compile
    and one for the recognizer rung's compile on first use, one per
    engine attempt (deadline slices included) and per document, plus an
    instant marker per injected-fault plan. Spans
    take their own clock readings, so under a synthetic [now_ns] they
    shift subsequent [r_ms] values; with the real monotonic clock
    behavior is unchanged.

    [on_record] fires as each record is produced, before the next
    document is read — the JSONL streaming hook.

    The only error is a grammar that fails to compile; after that
    point every failure is a record. Never raises. *)

val manifest_paths : string -> (string list, string) result
(** The document paths a manifest lists, in order: one per line, blank
    lines and [#] comments skipped, surrounding blanks trimmed. *)

val fail_name : fail_class -> string
(** [syntax], [resource], [io] or [internal]. *)

val severity : fail_class option -> int
(** [0] none, then syntax, io, resource, internal ([4]). *)

val exit_code : report -> int
(** Extends the PR 3 contract to aggregates, worst class wins:
    [5] if any document hit the internal backstop, else [4] if any
    tripped a resource budget (deadline and input cap included), else
    [3] if any failed to parse or read, else [0]. *)

(** {1 JSON rendering} *)

val jsonl_of_record : record -> string
(** One JSON object, no trailing newline. *)

val jsonl_of_summary : summary -> string
(** The final line: same shape, tagged ["summary":true]. *)

val pp_summary : Format.formatter -> summary -> unit
(** Human-readable one-liner for stderr. *)
