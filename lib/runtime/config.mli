(** Engine-side optimization switches.

    Together with the grammar-to-grammar passes in [Rats_optimize], these
    switches reconstruct the optimization ladder of the paper's
    evaluation; every rung of experiment E3 is a [Config.t] plus a
    transformed grammar. *)

type memo_strategy =
  | No_memo  (** plain recursive descent with backtracking — the naive
                 baseline, exponential in the worst case *)
  | Hashtable  (** memoize into a [(position × production)] hash table —
                   the textbook packrat baseline *)
  | Chunked  (** Rats!-style chunks: one lazily allocated record per
                 input position with a slot per memoized production *)

type t = {
  memo : memo_strategy;
  honor_transient : bool;
      (** when set, productions whose attributes say [Memo_never] get no
          memo slot at all — Rats!'s {e transient productions} *)
  dispatch : bool;
      (** filter choice alternatives by the next input byte against
          precomputed FIRST sets — Rats!'s choice specialization *)
  lean_values : bool;
      (** run predicates, [Token] bodies and void/text productions in
          recognizer mode that builds no semantic values — Rats!'s
          "avoid unnecessary semantic values" *)
  limits : Limits.t;
      (** resource budgets for every run of the prepared engine —
          {!Limits.unlimited} by default; see {!Limits.hardened} for
          parsing untrusted input *)
  observe : Observe.want;
      (** observability capabilities (profiler, trace ring, coverage) —
          {!Observe.off} by default, in which case preparation compiles
          exactly the uninstrumented code it always did *)
}

val naive : t
(** No memoization, no engine optimizations. *)

val packrat : t
(** [Hashtable] memoization of every production, nothing else — Ford's
    baseline packrat parser. *)

val optimized : t
(** Everything on: chunks, transients honored, dispatch, lean values. *)

val vm : t
(** The same value as {!optimized}. It exists only because the
    benchmark's [bench/suite/rmlbench.ml:77] names it (a traced
    [prepare.vm] row from when a bytecode back end existed), and the
    benchmark sources are not changed together with the engine; drop it
    with that row in the next change to the benchmark. *)

val v :
  ?memo:memo_strategy ->
  ?honor_transient:bool ->
  ?dispatch:bool ->
  ?lean_values:bool ->
  ?limits:Limits.t ->
  ?observe:Observe.want ->
  unit ->
  t

val with_limits : Limits.t -> t -> t
val with_observe : Observe.want -> t -> t

val pp : Format.formatter -> t -> unit
val describe : t -> string
