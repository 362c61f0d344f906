(** The optimizer driver: runs an ordered pass list over a grammar with
    a shared analysis cache, per-pass instrumentation and a
    well-formedness gate.

    Execution order:

    + the {e gate} (unless [~gate:false]): {!Rats_peg.Analysis.check}
      hard errors — left recursion, dangling references, vacuous
      repetition — abort the run, and {!Rats_peg.Lint.check} warnings
      are collected into the outcome. This is where a composed grammar
      is rejected {e before} any optimization effort is spent on it;
    + the passes, in list order, each timed and measured (production
      and IR-node deltas) into a {!row}. With [~verify:true] the driver
      re-checks well-formedness after every pass and aborts if a pass
      broke the grammar — each transformation stays independently
      verifiable as they compose.

    A grammar that needs left-recursion repair is repaired before the
    driver sees it ({!Passes.eliminate_left_recursion}, [-L]).

    One {!Rats_peg.Analysis_ctx.t} flows through the whole run. It is
    keyed on the grammar each query is about, so a pass that returns its
    input unchanged, or the gate and the first pass, share one
    analysis. *)

open Rats_support
open Rats_peg

type row = {
  pass_name : string;
  pass_time : float;  (** wall-clock seconds for this pass alone *)
  prods_before : int;
  prods_after : int;
  nodes_before : int;  (** {!Rats_peg.Grammar.size} before the pass *)
  nodes_after : int;
  pass_changed : bool;
      (** false when the pass returned a structurally identical grammar *)
}
(** One executed pass: its wall time and its effect on grammar size —
    the per-pass half of the E3 story. *)

type outcome = {
  grammar : Grammar.t;  (** the grammar after the last pass *)
  rows : row list;  (** one per executed pass, in execution order *)
  warnings : Diagnostic.t list;  (** lint findings from the gate *)
}

val run :
  ?gate:bool ->
  ?verify:bool ->
  ?dump_after:(Pass.t -> Grammar.t -> unit) ->
  Pass.t list ->
  Grammar.t ->
  (outcome, Diagnostic.t list) result
(** [run passes g] — defaults: [gate] on, [verify] off. [dump_after] is
    called with each pass and the grammar it produced (the CLI's
    [--dump-after] hook). With [~gate:false ~verify:false] the result is
    always [Ok]. *)

val total_time : outcome -> float
(** Sum of the per-pass wall times, in seconds. *)

val pp_table : Format.formatter -> row list -> unit
(** Aligned table with a Δ column per metric and a total-time footer
    ([rml optimize --trace], E3). *)
