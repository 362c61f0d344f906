open Rats_peg

type row = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable idx : row;
  mutable idx_len : int;
  mutable cells : row;
  mutable vers : row;
  mutable cmax : row;
  mutable anchor : row;
  mutable vals : Value.t array;
  mutable cap : int;
  mutable used : int;
  mutable free : int array;
  mutable nfree : int;
  nslots : int;
  nvslots : int;
  vmap : int array;
  versioned : bool;
}

(* --- the cell encoding ---------------------------------------------------- *)

(* [res] is at most [len + 1] and at least [-1]; [ext] is in [0, len + 1].
   Both fit their fields iff [len + 1 < 2^31]. *)
let max_len = (1 lsl 31) - 2
let fits ~len = len <= max_len
let[@inline] cell ~res ~ext = (ext lsl 32) lor (res land 0xFFFF_FFFF)

(* Shifting the low 32 bits up to the sign bit and back sign-extends
   them, so a failure reads back as -1 with no branch. *)
let[@inline] res c = (c lsl 31) asr 31
let[@inline] ext c = c lsr 32

(* --- rows ------------------------------------------------------------------ *)

let row n v =
  let r = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill r v;
  r

(* [blit src src_pos dst dst_pos n] is [Array.blit] on rows: a memmove,
   so overlapping ranges of one row shift correctly. *)
let blit src src_pos dst dst_pos n =
  if n > 0 then
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src src_pos n)
      (Bigarray.Array1.sub dst dst_pos n)

let fill r pos n v =
  if n > 0 then Bigarray.Array1.fill (Bigarray.Array1.sub r pos n) v

let create ~nslots ~vmap ~versioned =
  if Array.length vmap <> nslots then invalid_arg "Memo_arena.create";
  let nvslots = Array.fold_left (fun n v -> if v >= 0 then n + 1 else n) 0 vmap in
  {
    idx = row 0 0;
    idx_len = -1;
    cells = row 0 0;
    vers = row 0 0;
    cmax = row 0 0;
    anchor = row 0 0;
    vals = [||];
    cap = 0;
    used = 0;
    free = [||];
    nfree = 0;
    nslots;
    nvslots;
    vmap;
    versioned;
  }

(* Geometric growth keeps claiming amortized O(nslots); rows for
   chunks beyond [used] are garbage and never read. *)
let grow_chunks a =
  let cap = max 64 (2 * a.cap) in
  let copy width src =
    let dst = row (cap * width) 0 in
    blit src 0 dst 0 (a.used * width);
    dst
  in
  a.cells <- copy a.nslots a.cells;
  if a.versioned then a.vers <- copy a.nslots a.vers;
  a.cmax <- copy 1 a.cmax;
  a.anchor <- copy 1 a.anchor;
  let vals = Array.make (cap * a.nvslots) Value.Unit in
  Array.blit a.vals 0 vals 0 (a.used * a.nvslots);
  a.vals <- vals;
  a.cap <- cap

let release_values a =
  if a.nvslots > 0 && a.used > 0 then
    Array.fill a.vals 0 (a.used * a.nvslots) Value.Unit;
  a.used <- 0;
  a.nfree <- 0;
  a.idx_len <- -1

let reset a ~len =
  let n = len + 1 in
  if Bigarray.Array1.dim a.idx < n then
    a.idx <- row (max n (2 * Bigarray.Array1.dim a.idx)) (-1)
  else Bigarray.Array1.fill a.idx (-1);
  release_values a;
  a.idx_len <- n

let alloc a pos =
  let c =
    if a.nfree > 0 then (
      a.nfree <- a.nfree - 1;
      a.free.(a.nfree))
    else (
      if a.used = a.cap then grow_chunks a;
      let c = a.used in
      a.used <- c + 1;
      c)
  in
  (* A loop, not [fill]: a sub-array view would allocate per claim. *)
  let base = c * a.nslots in
  for i = base to base + a.nslots - 1 do
    a.cells.{i} <- 0
  done;
  a.cmax.{c} <- 0;
  a.anchor.{c} <- pos;
  a.idx.{pos} <- c;
  c

let free_chunk a c =
  if a.nvslots > 0 then Array.fill a.vals (c * a.nvslots) a.nvslots Value.Unit;
  a.anchor.{c} <- -1;
  if a.nfree = Array.length a.free then (
    let free = Array.make (max 64 (2 * a.nfree)) 0 in
    Array.blit a.free 0 free 0 a.nfree;
    a.free <- free);
  a.free.(a.nfree) <- c;
  a.nfree <- a.nfree + 1

(* Drop the entries of chunk [c] (at [p < start]) that examined a byte
   at or past [start]; [true] when any entry is left. Tightens cmax. *)
let trim a c p ~start =
  let live = ref false and m = ref 0 in
  let base = c * a.nslots in
  for sl = 0 to a.nslots - 1 do
    let x = a.cells.{base + sl} in
    if res x <> 0 then
      if p + ext x > start then begin
        a.cells.{base + sl} <- 0;
        let v = a.vmap.(sl) in
        if v >= 0 then a.vals.((c * a.nvslots) + v) <- Value.Unit
      end
      else begin
        live := true;
        if ext x > !m then m := ext x
      end
  done;
  a.cmax.{c} <- !m;
  !live

let edit a ~start ~old_len ~new_len =
  let n = a.idx_len in
  let delta = new_len - old_len in
  let src = start + old_len in
  let reused = ref 0 and relocated = ref 0 in
  (* One pass over the claimed chunks, each by its anchor. Before the
     damage an entry survives iff its computation examined nothing at or
     past [start] (cmax settles whole chunks); inside the replaced text
     nothing survives; after it, a chunk moves by the delta. *)
  for c = 0 to a.used - 1 do
    let p = a.anchor.{c} in
    if p >= 0 then
      if p < start then (
        if p + a.cmax.{c} <= start || trim a c p ~start then incr reused
        else (
          a.idx.{p} <- -1;
          free_chunk a c))
      else if p < src then free_chunk a c
      else (
        incr reused;
        if delta <> 0 then (
          incr relocated;
          a.anchor.{c} <- p + delta))
  done;
  let n' = n + delta in
  if delta > 0 && Bigarray.Array1.dim a.idx < n' then begin
    let idx = row (max n' (2 * Bigarray.Array1.dim a.idx)) (-1) in
    blit a.idx 0 idx 0 n;
    a.idx <- idx
  end;
  (* [blit] is a memmove, so shifting the whole suffix is one move
     regardless of direction. *)
  if delta <> 0 then blit a.idx src a.idx (src + delta) (n - src);
  (* The window covering the new text holds ids of the chunks freed
     above, or stale ids after a right-shift (the moved chunks' old
     homes); no chunk is anchored inside new text, so clear it. *)
  fill a.idx start new_len (-1);
  if delta < 0 then fill a.idx n' (-delta) (-1);
  a.idx_len <- n';
  (!reused, !relocated)
