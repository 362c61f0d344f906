(** Incremental parse sessions: see {!Rats} ("Incremental parse
    sessions") for the contract. *)

open Rats_support
open Rats_peg
open Rats_runtime

type t

val create : ?name:string -> ?start:string -> Engine.t -> string -> t
(** [create eng text] starts a session over the initial buffer [text].
    [name] names the buffer in locations (default ["<session>"]);
    [start] overrides the start production, as in {!Engine.run}. The
    first {!reparse} is a cold parse that populates the store. *)

val create_source : ?start:string -> Engine.t -> Source.t -> t
(** {!create} over an existing {!Source.t} — e.g. a memory-mapped file
    from {!Source.map_file}. A mapped buffer is parsed zero-copy until
    the first {!apply_edit}, which materializes the patched document as
    a string-backed source (copy on write; the mapping itself is never
    written through). *)

val source : t -> Source.t
(** The current buffer as a {!Source.t}. Its line-start index is
    patched across {!apply_edit} ({!Source.apply_edit}) rather than
    rebuilt, so location lookups stay cheap under edit scripts. *)

val text : t -> string
(** The current buffer. *)

val length : t -> int

val apply_edit : t -> start:int -> old_len:int -> replacement:string -> unit
(** Splice [replacement] over the [old_len] bytes at [start] and
    adjust the memo store. Edits compose: several may be applied
    between reparses. Raises [Invalid_argument] when
    [start < 0], [old_len < 0] or [start + old_len] exceeds the
    buffer length. *)

val reparse : t -> (Value.t, Parse_error.t) result
(** Parse the current buffer, reusing surviving memo entries and
    refilling the store for the next round. Never raises (same
    backstop as {!parse}). On failure the error is computed by an
    internal cold re-parse, so reports match a from-scratch parse
    byte for byte. When the engine is observed ({!Engine.observation}),
    a reparse that inherited store entries pushes a [memo-reuse] event
    into the trace ring before its parse events. *)

val stats : t -> Stats.t
(** Counters of the last {!reparse}; [memo_reused] is the number of
    store entries that survived the edits preceding it and
    [memo_relocated] the subset that was shifted to new positions. *)

val cold_fallbacks : t -> int
(** How many reparses fell back to a cold parse for error reporting. *)
