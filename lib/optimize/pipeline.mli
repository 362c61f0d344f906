(** The canonical pass registry, the all-on optimizer, and the E3
    optimization ladder — every pass chain in the system derives from
    the one ordered {!registry} here.

    Rung 0 of the ladder is the paper's baseline: every construct
    desugared to a memoized nonterminal, hashtable memoization of
    everything. Each subsequent rung adds one registry step,
    cumulatively, ending in the fully optimized parser the other
    experiments use. *)

open Rats_peg

type rung = {
  index : int;
  name : string;  (** short label for bench tables, e.g. ["+chunks"] *)
  detail : string;
  grammar : Grammar.t;  (** transformed grammar for this rung *)
  config : Rats_runtime.Config.t;  (** engine switches for this rung *)
}

type step = {
  label : string;  (** ladder label, e.g. ["+inlining"] *)
  detail : string;
  passes : Pass.t list;  (** grammar passes this step adds (often none) *)
  config : Rats_runtime.Config.t -> Rats_runtime.Config.t;
      (** engine switches this step turns on *)
  native_repetitions : bool;
      (** from this step on, ladder rungs start from the sugared grammar
          (repetitions as engine loops, not helper productions) *)
}

val registry : unit -> step list
(** The ten steps, in cumulative ladder order: baseline, +chunks,
    +transients, +terminals, +repetitions, +inlining, +folding,
    +factoring, +dispatch, +lean-values. *)

val passes : unit -> Pass.t list
(** The default grammar-side pipeline: every pass of every registry
    step, in order (transients, terminals, inline, fold, factor,
    prune). This is what {!optimize}, [rml optimize] and {!Rats_core}'s
    [parser_of] run. *)

val ladder : Grammar.t -> rung list
(** All rungs, each built by running the pass prefix of its registry
    steps through the {!Driver} (ungated — the ladder measures, it does
    not validate). *)

val optimize : Grammar.t -> Grammar.t
(** Run {!passes} through the {!Driver} with the gate off: a pure
    grammar transformation that cannot fail. Pair with
    {!Rats_runtime.Config.optimized}. *)
