(** Reusable storage arena for packrat memo chunks.

    The engine memoizes with one {e chunk} per visited input
    position holding one entry per memoized production ([nslots] of
    them). The arena owns all chunk storage as flat parallel arrays —
    [res]/[vers]/[exts] rows of [nslots] ints per chunk plus a [vals]
    row of [nvslots] values — indexed by an [idx] table mapping input
    position to chunk id. Chunks are recycled through a free list and
    the whole arena is recycled across runs ({!reset}) and across
    session reparses ({!edit}), so the steady-state hot path allocates
    nothing: claiming a chunk is a row clear, not four [Array.make]s.

    Value slots are separate from int slots: productions whose stored
    value is statically [Value.Unit] (see [Analysis.stores_no_value])
    get no [vals] cell at all — [vmap] maps an int slot to its value
    slot, [-1] when the production is value-free. On recognizer-heavy
    grammars this roughly halves chunk footprint.

    The arena is storage only. Budget accounting, statistics, and the
    [Limits.chunk_cost] model stay in the engines, which charge exactly
    as they did when chunks were individually heap-allocated — the
    governor's cost model is part of the observable contract and does
    not track the arena's actual (smaller, amortized) footprint.

    The record is exposed so the interpreters' hot paths can index the
    arrays directly. Invariants: [idx.(p)] is [-1] or a chunk id [c]
    with [c * nslots] valid in [res]/[vers]/[exts]; a claimed chunk's
    [res] row is all zero until entries are stored; [vers]/[exts] cells
    are garbage wherever [res] is 0. The arrays may be replaced on
    growth — re-read them after any {!alloc}. *)

open Rats_peg

type t = {
  mutable idx : int array;  (* input position -> chunk id, -1 = none *)
  mutable idx_len : int;  (* positions indexed (input len + 1); -1 = cold *)
  mutable res : int array;  (* chunk * nslots + slot *)
  mutable vers : int array;
  mutable exts : int array;
  mutable cmax : int array;  (* per chunk: max stored ext, 0 when empty *)
  mutable vals : Value.t array;  (* chunk * nvslots + vslot *)
  mutable cap : int;  (* chunks with backing rows *)
  mutable used : int;  (* chunks ever claimed since last reset *)
  mutable free : int array;  (* recycled chunk ids *)
  mutable nfree : int;
  nslots : int;
  nvslots : int;
  vmap : int array;  (* slot -> value slot, -1 = value-free production *)
}

val create : nslots:int -> vmap:int array -> t
(** An empty arena for chunks of [nslots] entries. [vmap] must have
    length [nslots] and assign value slots densely in slot order;
    {!create} derives [nvslots] from it. *)

val reset : t -> len:int -> unit
(** Make the arena cold for an input of [len] bytes: every position in
    [0..len] maps to no chunk, every chunk is reclaimable, and values
    from the previous run are released. O(len + live chunks). *)

val release_values : t -> unit
(** Drop all [Value.t] references and mark the arena cold, so a pooled
    arena parked between runs retains no parse results. Cheaper than
    {!reset} (no [idx] fill); the next {!reset} skips the value sweep. *)

val alloc : t -> int -> int
(** [alloc a pos] claims a chunk for position [pos] (which must have
    none), clears its [res] row and [cmax], records it in [idx], and
    returns its id. Amortized O(nslots). *)

val free_chunk : t -> int -> unit
(** Return chunk [c] to the free list, clearing its value slots; the
    caller clears (or overwrites) its [idx] entry. The id is reused by
    a later {!alloc}. *)

val edit : t -> start:int -> old_len:int -> new_len:int -> int * int
(** Splice the arena across a text edit replacing [old_len] bytes at
    [start] with [new_len] bytes, exactly like the per-chunk relocation
    the engines used to do on boxed chunk arrays: entries that examined
    no byte past [start] survive in place, chunks at relocated
    positions move by [new_len - old_len] (res offsets are relative, so
    a move is a pure re-index), and everything else is reclaimed.
    Requires a warm arena with [start + old_len <= idx_len - 1].
    Returns [(reused, relocated)] chunk counts for [Stats]. *)
