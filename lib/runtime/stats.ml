type t = {
  mutable invocations : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable memo_stores : int;
  mutable chunks_allocated : int;
  mutable chunk_slots : int;
  mutable backtracks : int;
  mutable state_snapshots : int;
  mutable memo_degraded : int;
  mutable fuel_used : int;
  mutable memo_reused : int;
  mutable memo_relocated : int;
}

let create () =
  {
    invocations = 0;
    memo_hits = 0;
    memo_misses = 0;
    memo_stores = 0;
    chunks_allocated = 0;
    chunk_slots = 0;
    backtracks = 0;
    state_snapshots = 0;
    memo_degraded = 0;
    fuel_used = 0;
    memo_reused = 0;
    memo_relocated = 0;
  }

let reset t =
  t.invocations <- 0;
  t.memo_hits <- 0;
  t.memo_misses <- 0;
  t.memo_stores <- 0;
  t.chunks_allocated <- 0;
  t.chunk_slots <- 0;
  t.backtracks <- 0;
  t.state_snapshots <- 0;
  t.memo_degraded <- 0;
  t.fuel_used <- 0;
  t.memo_reused <- 0;
  t.memo_relocated <- 0

let add acc t =
  acc.invocations <- acc.invocations + t.invocations;
  acc.memo_hits <- acc.memo_hits + t.memo_hits;
  acc.memo_misses <- acc.memo_misses + t.memo_misses;
  acc.memo_stores <- acc.memo_stores + t.memo_stores;
  acc.chunks_allocated <- acc.chunks_allocated + t.chunks_allocated;
  acc.chunk_slots <- acc.chunk_slots + t.chunk_slots;
  acc.backtracks <- acc.backtracks + t.backtracks;
  acc.state_snapshots <- acc.state_snapshots + t.state_snapshots;
  acc.memo_degraded <- acc.memo_degraded + t.memo_degraded;
  acc.fuel_used <- acc.fuel_used + t.fuel_used;
  acc.memo_reused <- acc.memo_reused + t.memo_reused;
  acc.memo_relocated <- acc.memo_relocated + t.memo_relocated

let memo_entries t = if t.chunk_slots > 0 then t.chunk_slots else t.memo_stores

(* Every counter, in declaration order, under its stable display name.
   This is the single schema every printer (and any JSON emitter) renders
   from: zero-valued fields are included, so consumers that key on field
   names never see the schema shift between runs or releases. The record
   pattern below is exhaustiveness insurance — adding a field to [t]
   without extending it is a compile error (warning 9 is fatal here). *)
let fields
    {
      invocations;
      memo_hits;
      memo_misses;
      memo_stores;
      chunks_allocated;
      chunk_slots;
      backtracks;
      state_snapshots;
      memo_degraded;
      fuel_used;
      memo_reused;
      memo_relocated;
    } =
  [
    ("invocations", invocations);
    ("hits", memo_hits);
    ("misses", memo_misses);
    ("stores", memo_stores);
    ("chunks", chunks_allocated);
    ("slots", chunk_slots);
    ("backtracks", backtracks);
    ("snapshots", state_snapshots);
    ("fuel-used", fuel_used);
    ("memo-degraded", memo_degraded);
    ("memo-reused", memo_reused);
    ("memo-relocated", memo_relocated);
  ]

(* Renders [fields] verbatim: the JSON schema is the [fields] schema,
   and the schema-stability CLI test pins it. *)
let to_json t =
  let b = Buffer.create 256 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" name v))
    (fields t);
  Buffer.add_char b '}';
  Buffer.contents b

let pp ppf t =
  Format.fprintf ppf
    "@[invocations=%d hits=%d misses=%d stores=%d chunks=%d slots=%d \
     backtracks=%d snapshots=%d@]"
    t.invocations t.memo_hits t.memo_misses t.memo_stores t.chunks_allocated
    t.chunk_slots t.backtracks t.state_snapshots;
  Format.fprintf ppf "@ @[fuel-used=%d memo-degraded=%d@]" t.fuel_used
    t.memo_degraded;
  Format.fprintf ppf "@ @[memo-reused=%d memo-relocated=%d@]" t.memo_reused
    t.memo_relocated
