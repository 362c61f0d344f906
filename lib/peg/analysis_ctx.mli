(** The analysis the optimizer driver hands from pass to pass.

    Every fact a pass reads — FIRST sets, nullability, reachability,
    reference counts, the terminal level, recursion — is computed and
    kept by an {!Analysis.t}. An [Analysis_ctx.t] holds one of them and
    re-keys it, so the pass driver can hand one context to every pass
    and a fact is computed once for as long as passes keep returning
    the same grammar.

    Every query names the grammar it asks about. The analysis is kept
    for the grammar it was computed for (physically the same value), and
    for one that differs from it only in memo hints (same start, same
    production names, kinds and visibilities, physically the same
    bodies); a query about any other grammar replaces it with a fresh
    one. No fact depends on memo hints, so a pass never sees facts that
    do not hold for its input, whatever ran before it. *)

type t

val create : unit -> t
(** An empty context. *)

val analysis : t -> Grammar.t -> Analysis.t
(** The {!Analysis} of the grammar, or of the one asked about last if it
    differs from this one in memo hints only. *)

val computations : t -> int
(** How many {!Analysis.analyze} runs this context has performed —
    instrumentation for tests proving that caching actually shares. *)
