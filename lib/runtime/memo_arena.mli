(** Reusable storage arena for packrat memo chunks.

    Under chunked memoization the engine keeps one {e chunk} per visited
    input position, holding one entry per memoized production ([nslots]
    of them). The arena owns all chunk storage as flat rows indexed by
    chunk id — a [cells] row of [nslots] packed entries per chunk, a
    [vers] row of the same shape when the engine has a stateful memo
    slot, the [cmax] and [anchor] rows of one int per chunk, and a
    [vals] row of [nvslots] values — with an [idx] table mapping input
    position to chunk id. Chunks are recycled through a free list and
    the whole arena is recycled across runs ({!reset}) and across
    session reparses ({!edit}), so the steady-state hot path allocates
    nothing: claiming a chunk is a row clear, not an [Array.make].

    {b A cell is one word.} An entry's result — [0] empty, [-1] a
    memoized failure, [k >= 1] a success that consumed [k - 1] bytes —
    sits in the low 32 bits, and its examined extent (how far past its
    position the computation looked, end-of-input checks included) in
    the bits above: {!cell}, {!res}, {!ext}. Both are relative to the
    chunk's position, so moving a chunk rewrites no cell. They fit iff
    the input is at most {!max_len} bytes; the engine claims no chunk
    for a longer input, which then parses as under a spent memo budget
    ({!fits}). A stateful production's entries also carry the state
    version they were computed at, in [vers]; an arena whose engine has
    no stateful memo slot ([versioned = false]) allocates no [vers]
    row.

    Value slots are separate from cells: productions whose stored value
    is statically [Value.Unit] (see [Analysis.stores_no_value]) get no
    [vals] cell at all — [vmap] maps a slot to its value slot, [-1]
    when the production is value-free.

    The arena is storage only: a {!Memo_store.t} holds it and owns the
    [Limits.chunk_cost] model, and the engine's memo protocol does the
    accounting and statistics. The cost model is part of the observable
    contract and does not track the arena's actual (smaller, amortized)
    footprint.

    The int rows live off the OCaml heap, as [Bigarray]s. They are
    most of the arena's bytes and hold no pointers, but on the heap an
    int array is an ordinary block: every major cycle's marker reads
    each of its words, and growth allocates the new rows in the major
    heap, which paces the collector faster. Only [vals], which points
    at parse results, stays an OCaml array. Rows are read and
    written with the bounds-checked [.{}] operator, as the arrays were
    with [.()].

    The record is exposed so the memo protocol can index the rows
    directly. Invariants: [idx.{p}] is [-1] or a chunk id [c] with
    [anchor.{c} = p]; a chunk below [used] is claimed iff its anchor
    is not [-1] (freed chunks sit on the free list); a claimed chunk's
    cells are all [0] until entries are stored; [vers] cells are
    garbage wherever the cell is empty; [cmax.{c}] bounds the extents
    of chunk [c]'s entries. The rows may be replaced on growth —
    re-read them after any {!alloc}. *)

open Rats_peg

type row = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A row of ints outside the OCaml heap. *)

type t = {
  mutable idx : row;  (* input position -> chunk id, -1 = none *)
  mutable idx_len : int;  (* positions indexed (input len + 1); -1 = cold *)
  mutable cells : row;  (* chunk * nslots + slot: packed entry, 0 = empty *)
  mutable vers : row;  (* same shape as cells; empty unless versioned *)
  mutable cmax : row;  (* per chunk: max stored ext, 0 when empty *)
  mutable anchor : row;  (* per chunk: its position, -1 when free *)
  mutable vals : Value.t array;  (* chunk * nvslots + vslot *)
  mutable cap : int;  (* chunks with backing rows *)
  mutable used : int;  (* chunks ever claimed since last reset *)
  mutable free : int array;  (* recycled chunk ids *)
  mutable nfree : int;
  nslots : int;
  nvslots : int;
  vmap : int array;  (* slot -> value slot, -1 = value-free production *)
  versioned : bool;  (* some slot's production is stateful *)
}

(** {1 Cells} *)

val max_len : int
(** The longest input, [2^31 - 2] bytes, whose results and extents fit
    a cell: both are at most [len + 1], which must fit in 31 bits. *)

val fits : len:int -> bool
(** [len <= max_len]. A run over a longer input claims no chunk. *)

val cell : res:int -> ext:int -> int
(** The packed entry: [res] in the low 32 bits, [ext] above. Requires
    [-1 <= res <= max_len + 1] and [0 <= ext <= max_len + 1]. *)

val res : int -> int
(** A cell's result, sign-extended: [0] empty, [-1] failure, [k >= 1]
    success. *)

val ext : int -> int
(** A cell's examined extent. *)

(** {1 Chunks} *)

val create : nslots:int -> vmap:int array -> versioned:bool -> t
(** An empty arena for chunks of [nslots] entries. [vmap] must have
    length [nslots] and assign value slots densely in slot order;
    {!create} derives [nvslots] from it. [versioned] allocates the
    [vers] row. *)

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
    none), clears its cells and [cmax], anchors it at [pos], records it
    in [idx], and returns its id. Amortized O(nslots). *)

val free_chunk : t -> int -> unit
(** Return chunk [c] to the free list, clearing its value slots and its
    anchor; the caller clears (or overwrites) its [idx] entry. The id
    is reused by a later {!alloc}. *)

val edit : t -> start:int -> old_len:int -> new_len:int -> int * int
(** Splice the arena across a text edit replacing [old_len] bytes at
    [start] with [new_len] bytes: entries that examined no byte past
    [start] survive in place, chunks at relocated positions move by
    [new_len - old_len] (cells are relative, so a move rewrites only
    the anchor, and the [idx] suffix shifts with one overlapping
    [Bigarray.Array1.blit], a memmove, skipped when the delta is 0),
    and everything else is reclaimed. The chunks are found through
    their anchors, so the walk is O(claimed chunks), not O(input).
    Requires a warm arena with [start + old_len <= idx_len - 1].
    Returns [(reused, relocated)] chunk counts for [Stats]. *)
