(** Shared analysis cache for grammar transformation pipelines.

    The optimizer passes all consume the same static facts — FIRST sets,
    nullability, reachability, reference counts, the terminal level. An
    [Analysis_ctx.t] caches them for one grammar at a time, so the pass
    driver can hand one context to every pass and a fact is computed
    once for as long as passes keep returning the same grammar.

    Every query names the grammar it asks about. The cache is keyed on
    it: a query about the grammar the cached facts were computed for
    (physically the same value) reuses them, and a query about any other
    grammar drops them and starts over. A pass therefore never sees
    facts about a grammar other than its input, whatever ran before it. *)

type t

val create : unit -> t
(** An empty cache. *)

val analysis : t -> Grammar.t -> Analysis.t
(** The full {!Analysis} record (nullability, FIRST sets, statefulness,
    reachability) of the grammar; computed on first use. *)

val reachable : t -> Grammar.t -> Analysis.StringSet.t

val ref_count : t -> Grammar.t -> string -> int
(** Like {!Analysis.ref_count}, but all counts are computed in one sweep
    over the grammar on first use instead of one sweep per query. *)

val terminals : t -> Grammar.t -> Analysis.StringSet.t
(** Productions at the lexical level: they never build syntax-tree nodes
    or touch parser state, and transitively reference only such
    productions (greatest fixed point). This is the set the terminal
    optimization unmemoizes. *)

val computations : t -> int
(** How many full {!Analysis.analyze} runs this context has performed —
    instrumentation for tests proving that caching actually shares. *)
