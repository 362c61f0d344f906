open Rats_peg

type entry = int * Value.t * int * int

type mem =
  | Nothing
  | Chunks of Memo_arena.t
  | Table of (int, entry) Hashtbl.t

type t = {
  mem : mem;
  cost : int;
  nslots : int;
  mutable bytes : int;
  mutable len : int;
  mutable version : int;
}

let create strategy ~nslots ~vmap ~versioned =
  let mem, cost =
    match (strategy : Config.memo_strategy) with
    | No_memo -> (Nothing, 0)
    | Hashtable -> (Table (Hashtbl.create 1024), Limits.table_entry_cost)
    | Chunked ->
        let a = Memo_arena.create ~nslots ~vmap ~versioned in
        (Chunks a, Limits.chunk_cost ~value_slots:a.Memo_arena.nvslots nslots)
  in
  { mem; cost; nslots; bytes = 0; len = -1; version = 0 }

let fits s ~len =
  match s.mem with Chunks _ -> Memo_arena.fits ~len | Nothing | Table _ -> true

let budget s ~len max_memo_bytes = if fits s ~len then max_memo_bytes else -1

(* An arena's [idx_len] is always [len + 1] while [len >= 0]: [sync]
   resets both, [edit] moves both by the same delta. *)
let sync s ~len =
  if s.len <> len || not (fits s ~len) then (
    (match s.mem with
    | Nothing -> ()
    | Chunks a -> Memo_arena.reset a ~len
    | Table h -> Hashtbl.clear h);
    s.bytes <- 0;
    s.len <- len)

let park s =
  (match s.mem with
  | Nothing -> ()
  | Chunks a -> Memo_arena.release_values a
  | Table h -> Hashtbl.clear h);
  s.len <- -1

(* Table entries are keyed by position, so an edit re-keys them: those
   that looked only at bytes before the damage keep their key, those at
   or past its end move by the delta, the rest are dropped. *)
let edit_table h ~nslots ~start ~old_len ~delta =
  let moved = ref [] in
  Hashtbl.filter_map_inplace
    (fun key ((_, _, _, ext) as e) ->
      let pos = key / nslots in
      if pos < start && pos + ext <= start then Some e
      else (
        if pos >= start + old_len then
          moved := (key + (delta * nslots), e) :: !moved;
        None))
    h;
  List.iter (fun (key, e) -> Hashtbl.replace h key e) !moved;
  let relocated = List.length !moved in
  (Hashtbl.length h, if delta = 0 then 0 else relocated)

let edit s ~start ~old_len ~new_len =
  if s.len < 0 then (0, 0)
  else (
    if start < 0 || old_len < 0 || new_len < 0 || start + old_len > s.len then
      invalid_arg "Memo_store.edit: edit out of bounds";
    let delta = new_len - old_len in
    let ((reused, _) as counts) =
      match s.mem with
      | Nothing -> (0, 0)
      | Chunks a -> Memo_arena.edit a ~start ~old_len ~new_len
      | Table h -> edit_table h ~nslots:s.nslots ~start ~old_len ~delta
    in
    s.bytes <- reused * s.cost;
    s.len <- s.len + delta;
    counts)
