(** Parse-run counters.

    These feed experiments E2/E3/E5: throughput is wall-clock (measured
    by the bench harness), while memory behaviour is reported here as
    exact counts rather than GC samples, so ablations are deterministic. *)

type t = {
  mutable invocations : int;  (** nonterminal invocations, memoized or not *)
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable memo_stores : int;  (** memo-table entries written *)
  mutable chunks_allocated : int;  (** chunk records (chunked memo only) *)
  mutable chunk_slots : int;  (** total slots across allocated chunks *)
  mutable backtracks : int;  (** failed choice alternatives *)
  mutable state_snapshots : int;  (** stateful-parsing table restores *)
  mutable memo_degraded : int;
      (** memo stores skipped because {!Limits.t.max_memo_bytes} was
          exhausted — the invocations ran un-memoized instead *)
  mutable fuel_used : int;
      (** production invocations charged against {!Limits.t.fuel} *)
  mutable memo_reused : int;
      (** memo entries that survived the last edit and were available at
          reparse start (incremental sessions only; counted per chunk
          for chunked memo, per entry for table memo) *)
  mutable memo_relocated : int;
      (** the subset of [memo_reused] that was shifted by the edit's
          length delta, in the same units *)
}

val create : unit -> t
val reset : t -> unit
val add : t -> t -> unit
(** [add acc t] accumulates [t] into [acc]. *)

val memo_entries : t -> int
(** Entries materialized: stores for table memo, slots for chunks. *)

val fields : t -> (string * int) list
(** Every counter under its stable display name, zero-valued fields
    included, in declaration order — the one schema all printers render
    from. Adding a counter to [t] without extending this list is a
    compile error. *)

val pp : Format.formatter -> t -> unit
(** Renders every field of {!fields}, zeroes included, so the output
    schema is stable across configurations. *)

val to_json : t -> string
(** One JSON object rendering exactly {!fields} — same names, same
    order, zero-valued fields included — so [rml parse --stats-json]
    and any future machine consumer share one stable schema. No
    trailing newline. *)
