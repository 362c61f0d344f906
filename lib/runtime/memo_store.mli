(** The storage a parse memoizes into.

    One type serves both as an incremental session's persistent store
    and as the scratch an engine parks between store-less runs. A store
    holds the one structure its strategy uses — a chunk {!Memo_arena.t}
    under [Chunked], a hash table under [Hashtable], nothing under
    [No_memo] — with what must outlive a run: the memo bytes charged,
    the input length the entries were computed against and the state
    version the last run ended at. It owns the memo cost model and the
    lifecycle between runs; the lookup-and-fill protocol is the
    engine's, which indexes [mem] directly. *)

open Rats_peg

type entry = int * Value.t * int * int
(** A table entry: consumed bytes ([-1]: memoized failure), value,
    version stamp, examined extent — offsets relative to its position. *)

type mem =
  | Nothing
  | Chunks of Memo_arena.t
  | Table of (int, entry) Hashtbl.t  (** key = position × slots + slot *)

type t = {
  mem : mem;
  cost : int;  (** memo bytes charged per chunk or table entry *)
  nslots : int;
  mutable bytes : int;  (** memo bytes charged so far *)
  mutable len : int;  (** input length of the entries; [-1] when none *)
  mutable version : int;  (** the last run's final state version *)
}

val create :
  Config.memo_strategy -> nslots:int -> vmap:int array -> versioned:bool -> t
(** An empty store for [nslots] memo slots; [vmap] maps each slot to its
    value slot and [versioned] says whether any slot's production is
    stateful, as in {!Memo_arena.create}. *)

val budget : t -> len:int -> int -> int
(** [budget s ~len max_memo_bytes] is the memo budget of a run over
    [len] bytes: [max_memo_bytes], or [-1] — room for no chunk, so
    every miss degrades — when the store is a chunk arena whose cells
    cannot hold the input's positions ({!Memo_arena.fits}). *)

val sync : t -> len:int -> unit
(** Ready the store for a run over [len] bytes: entries carry over only
    when it was edited to exactly this length (a session does that) and
    the length {!Memo_arena.fits} a chunk arena's cells; otherwise the
    store is emptied rather than risk stale hits. *)

val park : t -> unit
(** Drop every parse result but keep the capacity, so a store parked on
    an idle engine retains no values; the next {!sync} empties it. *)

val edit : t -> start:int -> old_len:int -> new_len:int -> int * int
(** Adjust the store for a splice replacing [old_len] bytes at [start]
    with [new_len] bytes, and recharge [bytes] for the survivors.
    Entries record their {e examined extent}, the farthest position
    their computation inspected, end-of-input checks included. An entry
    is kept if everything it looked at lies before the damage, which
    keeps retention sound under lookahead; entries at or past the
    damage's end move by the length delta (sound because a production
    never examines positions before its own start; relative offsets
    make the move a re-index); the rest are dropped. Stateful entries
    rely on their version stamps instead. Returns [(surviving,
    relocated)] — chunks under chunked memo, entries otherwise;
    [relocated] counts only entries whose position moved. A store that
    has not run is left alone. Raises [Invalid_argument] when the edit
    is out of bounds. *)
