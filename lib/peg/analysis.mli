(** Static analyses over closed grammars.

    These power the well-formedness checks Rats! performs before code
    generation (left recursion and vacuous repetition are rejected) and
    feed the optimizer (FIRST sets for choice dispatch and prefix
    factoring, reachability for pruning, reference counts for transient
    marking, the terminal level for the terminal optimization,
    recursion for inlining, statefulness for memoization safety). This
    is the one place a grammar fact is computed and kept; the optimizer
    driver's {!Analysis_ctx} only hands one [t] from pass to pass. All
    analyses are monotone fixed points over the production
    set and run in time linear in grammar size times a small number of
    iterations. *)

open Rats_support

module StringSet : Set.S with type elt = string

type nullability =
  | Never_empty  (** every successful match consumes at least one byte *)
  | May_be_empty  (** can succeed without consuming *)

type t
(** Analysis results for one grammar. Each table (nullability, FIRST
    sets, statefulness, unit values, the terminal level, reference
    counts, reachability, recursion) and the
    {!check} report is computed when a query first needs it and kept
    for later queries, so a caller pays only for the facts it asks
    about.

    A [t] holds no closure: marshalled in one value with its grammar,
    it comes back with every fact it had, and its identity-keyed table
    ({!Expr.Phys}, whose hash is structural) still finds the grammar's
    nodes. The built-in snapshot ships each grammar this way. A [t] is
    not safe to query from two domains at once. *)

val analyze : Grammar.t -> t
(** Requires a closed grammar (no dangling references); dangling
    references are treated as failing expressions but should be reported
    via {!Grammar.check_closed} first. Cheap: no table is computed
    until queried. *)

val grammar : t -> Grammar.t

val computed : t -> int
(** How many facts this analysis has computed so far: one for each
    table, one for a {!check} run, and one for each expression whose
    FIRST set {!expr_first} walked rather than found. Instrumentation
    for tests proving that carried facts are complete. *)

(** {1 Nullability} *)

val nullable : t -> string -> bool
(** [nullable a n] — may production [n] succeed on the empty string? *)

val expr_nullable : t -> Expr.t -> bool

(** {1 FIRST sets} *)

val first : t -> string -> Charset.t
(** Over-approximation of the set of bytes a successful match of the
    production can start with. When {!nullable} also holds, a match may
    instead start with any byte (it consumes nothing), so dispatch must
    combine both facts. *)

val expr_first : t -> Expr.t -> Charset.t * bool
(** [(set, eps)] — possible first bytes, and whether the expression may
    succeed without consuming input. Results are kept by structure for
    the expression and every choice alternative inside it, so asking
    about a node already walked, or about an enclosing alternative,
    walks no choice alternative twice. *)

val expr_yields_unit : t -> Expr.t -> bool
(** Statically known to produce [Value.Unit] on success: literals,
    predicates, drops, void productions, and combinations thereof. The
    engine uses this to skip value collection in repetitions over void
    bodies. *)

val stores_no_value : t -> Production.t -> bool
(** True when a successful full-mode run of the production provably
    leaves [Value.Unit] in the value register (Void productions, and
    Plain productions whose body {!expr_yields_unit}). The engine
    consults this to drop the production's value slot from memo chunks:
    a hit simply restores [Unit] instead of reading a stored value.
    Config-independent. *)

val preserves_value : Expr.t -> bool
(** True when a lean (recognizer-mode) run of the expression provably
    never writes the engine's value register: such parts may follow a
    sequence's only value-bearing part without a collection frame to
    protect the result. *)

(** How a full-mode (value-building) sequence is run. *)
type seq_plan =
  | Collect
      (** collect every part's labeled value; the only plan without
          lean values, or when a part is a [Splice] *)
  | No_value of Expr.t list
      (** no part bears a value: run these bodies (binds peeled) in
          recognizer mode and yield [Unit] *)
  | One_value of string option * (Expr.t * bool) list
      (** one part bears the value: run the bodies (binds peeled), the
          flagged one in full mode and the rest in recognizer mode, then
          bind the value under the label, if any *)

val seq_plan : t -> lean_values:bool -> Expr.t list -> seq_plan
(** The plan the engine lowers a value-building sequence by. A
    sequence skips collection when its value is its one value-bearing
    part's (what [Value.seq] reduces it to) and the parts after that one
    {!preserves_value}. *)

(** {1 Reachability} *)

val reachable : t -> StringSet.t
(** Productions reachable from the start symbol. *)

val reachable_from : t -> string list -> StringSet.t

val recursive : t -> StringSet.t
(** Productions that can reach themselves through one or more
    references: [n] is in the set iff [n] is in
    [reachable_from a (Expr.refs body_of_n)]. One strongly connected
    components pass over the whole grammar. *)

(** {1 Reference counts} *)

val ref_count : t -> string -> int
(** Number of reference sites to the production across the grammar
    (start symbol counts as one extra site). All counts are taken in
    one sweep on the first query. *)

(** {1 Terminal level} *)

val terminals : t -> StringSet.t
(** Productions at the lexical level: they never build syntax-tree nodes
    or touch parser state, and transitively reference only such
    productions (greatest fixed point). This is the set the terminal
    optimization unmemoizes and a session engine leaves without a
    slot. *)

(** {1 State} *)

val stateful : t -> string -> bool
(** Transitively uses [Record]/[Member] parser state. Such productions
    are unsafe to memoize without keying on state, so the engine stamps
    their memo entries with the state version — Rats!'s [stateful]. *)

(** {1 Well-formedness} *)

val left_recursion : t -> string list option
(** [Some cycle] when the grammar is left-recursive; the cycle lists the
    productions involved, starting and ending at the same name. *)

val check : t -> Diagnostic.t list
(** Full well-formedness report: left recursion, repetition over a
    nullable body ([e* ] where [e] may match ε), unreachable {e public}
    productions are {e not} errors, but dangling refs are. Empty list
    means the grammar is safe for packrat parsing. Computed once and
    kept, like the tables. *)
