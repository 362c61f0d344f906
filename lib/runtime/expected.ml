type t = {
  mutable farthest : int;
  entries : string array;  (* insertion order; only [0, n) is live *)
  mutable n : int;
}

let max_entries = 32

let create () = { farthest = -1; entries = Array.make max_entries ""; n = 0 }

let reset t =
  Array.fill t.entries 0 t.n "";
  t.farthest <- -1;
  t.n <- 0

(* Recording is on the hot path — every farthest-failure advance during
   backtracking lands here — so it must not allocate. The fixed array
   replaces a cons per advance; [descriptions] pays the list cost only
   when an error is actually built.

   Overflow is deterministic: once [max_entries] distinct descriptions
   are held, a new one evicts the lexicographically largest retained
   entry iff it is smaller, so the retained set is always the
   [max_entries] smallest distinct descriptions seen at the farthest
   position — independent of arrival order, so configurations that
   visit alternatives in different orders report the same set. *)
let record t pos desc =
  if pos > t.farthest then (
    t.farthest <- pos;
    t.entries.(0) <- desc;
    t.n <- 1)
  else if pos = t.farthest then (
    let dup = ref false in
    for i = 0 to t.n - 1 do
      if String.equal desc (Array.unsafe_get t.entries i) then dup := true
    done;
    if not !dup then
      if t.n < max_entries then (
        t.entries.(t.n) <- desc;
        t.n <- t.n + 1)
      else (
        let worst = ref 0 in
        for i = 1 to t.n - 1 do
          if
            String.compare
              (Array.unsafe_get t.entries i)
              (Array.unsafe_get t.entries !worst)
            > 0
          then worst := i
        done;
        if String.compare desc t.entries.(!worst) < 0 then
          t.entries.(!worst) <- desc))

let farthest t = t.farthest

let descriptions t =
  let rec take i acc =
    if i < 0 then acc else take (i - 1) (t.entries.(i) :: acc)
  in
  take (t.n - 1) []

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
