open Rats_peg

(* What a description is printed from. Printing waits until an error
   reports the id: a prepared grammar interns a description for every
   terminal, predicate and dispatch set it compiles, and a run that
   succeeds prints none of them. *)
type source =
  | Text of string
  | Char of char
  | Literal of string
  | Set of Charset.t
  | Pred of bool * Expr.t  (* positive, body *)

type names = {
  mutable sources : source array;  (* id -> source; only [0, count) is live *)
  mutable printed : string option array;  (* id -> its text, once reported *)
  mutable count : int;
  chars : int array;  (* char code -> id of its quoted form; -1 = none yet *)
  literals : (string, int) Hashtbl.t;  (* literal -> id of its quoted form *)
  others : (string, int) Hashtbl.t;  (* description -> id *)
  lock : Mutex.t;
}

let names () =
  {
    sources = [||];
    printed = [||];
    count = 0;
    chars = Array.make 256 (-1);
    literals = Hashtbl.create 64;
    others = Hashtbl.create 16;
    lock = Mutex.create ();
  }

let lock ns = ns.lock

let add ns source =
  let id = ns.count in
  if id = Array.length ns.sources then (
    let cap = max 64 (2 * id) in
    let sources = Array.make cap (Text "") and printed = Array.make cap None in
    Array.blit ns.sources 0 sources 0 id;
    Array.blit ns.printed 0 printed 0 id;
    ns.sources <- sources;
    ns.printed <- printed);
  ns.sources.(id) <- source;
  ns.count <- id + 1;
  id

let fresh ns desc = add ns (Text desc)
let fresh_set ns set = add ns (Set set)
let fresh_pred ns ~positive body = add ns (Pred (positive, body))

let cached tbl ns key source =
  match Hashtbl.find_opt tbl key with
  | Some id -> id
  | None ->
      let id = add ns (source key) in
      Hashtbl.add tbl key id;
      id

let intern ns desc = cached ns.others ns desc (fun d -> Text d)
let intern_literal ns s = cached ns.literals ns s (fun s -> Literal s)

let intern_char ns c =
  let k = Char.code c in
  let id = ns.chars.(k) in
  if id >= 0 then id
  else
    let id = add ns (Char c) in
    ns.chars.(k) <- id;
    id

(* A one-byte predicate body is described as its matcher is. *)
let pred_body (x : Expr.t) =
  match x.it with
  | Expr.Chr c -> Pretty.quote_char c
  | Expr.Cls set -> Charset.to_string set
  | Expr.Any -> "any character"
  | _ -> Pretty.describe x

let print = function
  | Text s -> s
  | Char c -> Pretty.quote_char c
  | Literal s -> Pretty.quote_string s
  | Set set -> Charset.to_string set
  | Pred (true, x) -> "&" ^ pred_body x
  | Pred (false, x) -> "not " ^ Pretty.describe x

let describe ns id =
  match ns.printed.(id) with
  | Some text -> text
  | None ->
      let text = print ns.sources.(id) in
      ns.printed.(id) <- Some text;
      text

type t = {
  names : names;
  mutable farthest : int;
  mutable base : int;
      (* stamp epoch: this run's records stamp [base + pos], above every
         stamp an earlier run left behind *)
  mutable stamps : int array;  (* id -> stamp of its latest record *)
  mutable arrivals : int array;
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

(* [id]'s first arrival at the farthest position, in arrays grown to
   hold it: it was interned after they were sized (a body compiled on
   first call interns while runs are under way), so it has no stamp. *)
let[@inline never] grow_and_arrive t pos id =
  let len = max (id + 1) (2 * Array.length t.stamps) in
  let stamps = Array.make len (-1) and arrivals = Array.make len 0 in
  Array.blit t.stamps 0 stamps 0 (Array.length t.stamps);
  Array.blit t.arrivals 0 arrivals 0 t.n;
  t.stamps <- stamps;
  t.arrivals <- arrivals;
  stamps.(id) <- t.base + pos;
  arrivals.(t.n) <- id;
  t.n <- t.n + 1

(* Recording is on the hot path — every failing terminal and every
   dispatch-skipped alternative lands here, mostly at the farthest
   position — so it is one compare and one stamp probe, and allocates
   only to grow. An id whose stamp already reads this position is a
   repeat; otherwise it joins the arrivals. Each id arrives at most once
   per position, so [arrivals] (one slot per id) cannot overflow; the
   cap is applied when an error is built. The length test stands in for
   the bounds check of [t.stamps.(id)], and growing is a tail call, so
   the common path keeps everything in registers. *)
let record t pos id =
  if pos >= t.farthest then (
    if pos > t.farthest then (
      t.farthest <- pos;
      t.n <- 0);
    let stamps = t.stamps in
    if id >= Array.length stamps then grow_and_arrive t pos id
    else
      let key = t.base + pos in
      if Array.unsafe_get stamps id <> key then (
        Array.unsafe_set stamps id key;
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
  Mutex.protect t.names.lock @@ fun () ->
  let held = Array.make max_entries "" and k = ref 0 in
  for i = 0 to t.n - 1 do
    let desc = describe t.names t.arrivals.(i) in
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
