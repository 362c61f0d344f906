(** Resource budgets for a parse run.

    The packrat trade-off is linear time for memo-table memory, and the
    engine's closures additionally recurse with input nesting. Parsing
    untrusted input
    therefore needs hard budgets: a governed run either finishes or
    returns a structured {!Parse_error} whose kind is
    [Resource_exhausted] — it never crashes the process.

    Budgets are deterministic counts, not wall-clock or GC samples, so a
    given (grammar, input, limits) triple always trips the same limit at
    the same point. *)

type t = {
  fuel : int;
      (** step budget: one unit per production invocation (memo hits
          included). [max_int] = unlimited. *)
  max_depth : int;
      (** invocation-nesting cap, checked when a production's body is
          about to run (memo hits don't nest): the grammar-level depth,
          which bounds the engine's OCaml stack depth. *)
  max_memo_bytes : int;
      (** approximate memo-table budget. Exceeding it never fails the
          parse: new chunks/entries simply stop being written and the
          affected invocations run un-memoized, counted in
          {!Stats.t.memo_degraded} — the run degrades from linear-time
          packrat towards plain recursive descent. *)
  max_input_bytes : int;
      (** inputs longer than this are rejected before parsing starts. *)
}

val unlimited : t
(** Every field [max_int] — the default; no governance overhead beyond
    a counter decrement per invocation. *)

val hardened : t
(** A preset for untrusted input: 5M invocations of fuel, nesting depth
    1024 (fires long before an 8 MiB OS stack), 64 MiB of memo, 8 MiB
    of input. *)

val v :
  ?fuel:int ->
  ?max_depth:int ->
  ?max_memo_bytes:int ->
  ?max_input_bytes:int ->
  unit ->
  t
(** Unspecified fields are unlimited. *)

val is_unlimited : t -> bool

(** Which budget a parse ran out of. [Memory] is only produced by the
    last-resort [Out_of_memory] backstop — the memo budget itself never
    errors, it degrades. *)
type which = Fuel | Depth | Memory | Input

val which_name : which -> string
val which_message : which -> string
val pp_which : Format.formatter -> which -> unit

val chunk_cost : ?value_slots:int -> int -> int
(** [chunk_cost ~value_slots nslots]: approximate bytes charged against
    [max_memo_bytes] when a memo chunk is allocated — per-slot
    result/extent/version bookkeeping plus a boxed word per {e value}
    slot ([value_slots], default [0]; the arena's vmap). A value-free
    engine —
    the batch recognizer rung — allocates cheaper chunks, so the same
    budget memoizes roughly twice the positions. *)

val table_entry_cost : int
(** Approximate bytes charged per hash-table memo entry. *)

val pp : Format.formatter -> t -> unit
val describe : t -> string
