(** Grammar-to-grammar optimization passes, one per optimization in the
    paper's ladder. All passes preserve the recognized language; all but
    {!factor_prefixes} (which reshapes only through the value-preserving
    [Splice] construct, so it too is value-safe) preserve semantic values
    bit for bit. Each pass is idempotent.

    Every analysis-consuming pass reads its facts off the
    {!Rats_peg.Analysis} of its input and takes an optional [?ctx]: the
    shared {!Rats_peg.Analysis_ctx.t} the optimizer driver threads
    through a pipeline, so a fact about a grammar is computed once
    however many passes ask for it. The context answers for the grammar
    a pass is given and nothing else; called without it, a pass
    analyzes its input afresh — identical results, possibly more
    work. *)

open Rats_peg

val prune : ?ctx:Analysis_ctx.t -> Grammar.t -> Grammar.t
(** Dead-production elimination: drop productions unreachable from the
    start symbol and the public productions. *)

val mark_transients : ?ctx:Analysis_ctx.t -> Grammar.t -> Grammar.t
(** Rats!'s {e transient productions}: flip [Memo_auto] to [Memo_never]
    for productions referenced at most once in the whole grammar — their
    results can never be demanded twice at the same position through
    different paths, so memoizing them only costs memory. Explicit
    [memoized] annotations are respected. *)

val mark_terminals : ?ctx:Analysis_ctx.t -> Grammar.t -> Grammar.t
(** Rats!'s {e terminal optimization}: productions that sit at the
    lexical level — transitively reference only character-level
    machinery, build no syntax-tree nodes and touch no parser state —
    are marked [Memo_never] (and thereby also run leanly when the engine
    has [lean_values]). This is where spacing, identifiers and literals
    stop paying packrat overhead. The set is
    {!Rats_peg.Analysis.terminals}. *)

val inline_pass : ?threshold:int -> ?ctx:Analysis_ctx.t -> Grammar.t -> Grammar.t
(** Cost-based nonterminal inlining: replace references to small
    ([size <= threshold], default [12]), non-recursive productions by
    their bodies (wrapped according to the production kind so values are
    unchanged), then prune. [Inline_always]/[Inline_never] attributes
    override the cost heuristic. Productions whose expansion starts with
    a top-level binding are skipped (inlining them would leak the label
    into the host sequence). Every site of a callee holds the same
    physical expansion, including after a later round rewrites it. *)

val fold_duplicates : Grammar.t -> Grammar.t
(** Grammar folding: structurally identical private [Plain]/[Text]/[Void]
    productions of the same kind are merged into one, and references
    redirected. Runs to a fixed point. Generic productions are never
    folded — their name is part of their value. *)

val factor_prefixes : Grammar.t -> Grammar.t
(** Prefix factoring: rewrite [(a b / a c / d)] into
    [(a %splice(b / c) / d)] wherever adjacent alternatives share a
    structurally equal first element, recursively. Alternative labels
    inside a factored group are dropped, so this pass runs only after
    module composition. *)

val eliminate_left_recursion : Grammar.t -> Grammar.t
(** Rats!'s later "transformation of direct left recursion": a production

    {v  P = P t1 / ... / P tm / b1 / ... / bn  v}

    (in any alternative order) is rewritten into iteration,

    {v  P = (b1 / ... / bn) (t1 / ... / tm)*  v}

    which packrat parsing can execute, with the left-associative reading
    the author intended. The value is the base's value followed by the
    list of tail values (the shape the calculator grammar uses by hand).
    Only {e direct} left recursion (an alternative starting with a bare
    reference to the production itself) is transformed; indirect cycles
    are still rejected by {!Rats_peg.Analysis.check}. Labels of the
    rewritten alternatives are preserved on their tails.

    A repair, not a registered {!Pass}: [-L] ([Run.grammar_of], [rml
    optimize -L]) applies it before the driver's well-formedness gate. *)
