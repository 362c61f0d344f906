type names = {
  mutable descs : string array;  (* id -> description; only [0, count) is live *)
  mutable count : int;
  chars : int array;  (* char code -> id of its quoted form; -1 = none yet *)
  literals : (string, int) Hashtbl.t;  (* literal -> id of its quoted form *)
  others : (string, int) Hashtbl.t;  (* description -> id *)
}

let names () =
  {
    descs = [||];
    count = 0;
    chars = Array.make 256 (-1);
    literals = Hashtbl.create 64;
    others = Hashtbl.create 16;
  }

let fresh ns desc =
  let id = ns.count in
  if id = Array.length ns.descs then (
    let grown = Array.make (max 64 (2 * id)) "" in
    Array.blit ns.descs 0 grown 0 id;
    ns.descs <- grown);
  ns.descs.(id) <- desc;
  ns.count <- id + 1;
  id

let cached tbl ns key describe =
  match Hashtbl.find_opt tbl key with
  | Some id -> id
  | None ->
      let id = fresh ns (describe key) in
      Hashtbl.add tbl key id;
      id

let intern ns desc = cached ns.others ns desc Fun.id
let intern_literal ns s = cached ns.literals ns s Rats_peg.Pretty.quote_string

let intern_char ns c =
  let k = Char.code c in
  let id = ns.chars.(k) in
  if id >= 0 then id
  else
    let id = fresh ns (Rats_peg.Pretty.quote_char c) in
    ns.chars.(k) <- id;
    id

type t = {
  names : names;
  mutable farthest : int;
  mutable base : int;
      (* stamp epoch: this run's records stamp [base + pos], above every
         stamp an earlier run left behind *)
  stamps : int array;  (* id -> stamp of its latest record *)
  arrivals : int array;
      (* ids recorded at [farthest], first arrival first; [0, n) is live *)
  mutable n : int;
}

let max_entries = 32

let create names =
  {
    names;
    farthest = -1;
    base = 0;
    stamps = Array.make names.count (-1);
    arrivals = Array.make names.count 0;
    n = 0;
  }

(* O(1): no stamp is cleared, the epoch moves past them instead. *)
let reset t =
  t.base <- t.base + t.farthest + 1;
  t.farthest <- -1;
  t.n <- 0

(* Recording is on the hot path — every failing terminal and every
   dispatch-skipped alternative lands here, mostly at the farthest
   position — so it is one compare and one stamp probe, and never
   allocates. An id whose stamp already reads this position is a
   repeat; otherwise it joins the arrivals. Each id arrives at most once
   per position, so [arrivals] (one slot per id) cannot overflow; the
   cap is applied when an error is built. *)
let record t pos id =
  if pos >= t.farthest then (
    if pos > t.farthest then (
      t.farthest <- pos;
      t.n <- 0);
    let key = t.base + pos in
    if t.stamps.(id) <> key then (
      t.stamps.(id) <- key;
      Array.unsafe_set t.arrivals t.n id;
      t.n <- t.n + 1))

let farthest t = t.farthest

(* The arrivals replayed, in order, through a bounded list: a
   description already held (by string — distinct ids may share one) is
   skipped; past [max_entries] a new one evicts the lexicographically
   largest held entry iff it is smaller. The retained set is therefore
   the [max_entries] smallest distinct descriptions, independent of
   arrival order, so configurations that visit alternatives in
   different orders report the same set. Replaying first arrivals only
   loses nothing: a repeat is a no-op under this rule. *)
let descriptions t =
  let held = Array.make max_entries "" and k = ref 0 in
  for i = 0 to t.n - 1 do
    let desc = t.names.descs.(t.arrivals.(i)) in
    let dup = ref false in
    for j = 0 to !k - 1 do
      if String.equal desc held.(j) then dup := true
    done;
    if not !dup then
      if !k < max_entries then (
        held.(!k) <- desc;
        incr k)
      else
        let worst = ref 0 in
        for j = 1 to !k - 1 do
          if String.compare held.(j) held.(!worst) > 0 then worst := j
        done;
        if String.compare desc held.(!worst) < 0 then held.(!worst) <- desc
  done;
  Array.to_list (Array.sub held 0 !k)

let error t =
  Parse_error.v ~position:(max t.farthest 0) ~expected:(descriptions t) ()

let exhausted t ~which ~at =
  Parse_error.resource_exhausted ~which ~at
    ~position:(if t.farthest >= 0 then t.farthest else at)
    ~expected:(descriptions t) ()

let result t ~len ~require_eof ~stop value =
  if stop < 0 then Error (error t)
  else if require_eof && stop < len then
    if t.farthest > stop then
      Error
        (Parse_error.v ~position:t.farthest ~expected:(descriptions t)
           ~consumed:stop ())
    else
      Error
        (Parse_error.v ~position:stop ~expected:[ "end of input" ]
           ~consumed:stop ())
  else Ok value
