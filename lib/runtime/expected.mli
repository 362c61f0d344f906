(** Farthest-failure tracking.

    The engine reports errors as the input offset that the parse got
    farthest to before failing, together with the descriptions
    of what could have matched there. Descriptions are deduplicated on
    insertion — backtracking retries the same expression at the same
    position many times, and duplicates would otherwise crowd distinct
    expectations out of the capped list. *)

type t

val max_entries : int
(** Cap on retained descriptions per position (32). When more distinct
    descriptions fail at the farthest position, the retained set is the
    [max_entries] lexicographically smallest of them — a deterministic,
    arrival-order-independent rule, so configurations that visit
    alternatives in different orders always report the same set. *)

val create : unit -> t
val reset : t -> unit

val record : t -> int -> string -> unit
(** [record t pos desc] notes that [desc] failed to match at [pos].
    A new farthest position resets the list; at the current farthest
    position the description is appended unless already present — or,
    past the cap, unless it displaces the lexicographically largest
    retained entry (see {!max_entries}); earlier positions are
    ignored. *)

val farthest : t -> int
(** Farthest failure offset seen, [-1] if none. *)

val descriptions : t -> string list
(** Deduplicated descriptions at the farthest position, oldest first. *)

val error : t -> Parse_error.t
(** The outright-failure parse error. *)

val exhausted : t -> which:Limits.which -> at:int -> Parse_error.t
(** The resource-exhaustion error for a run that tripped [which] at
    input offset [at], carrying the farthest failure recorded so far. *)

val result :
  t ->
  len:int ->
  require_eof:bool ->
  stop:int ->
  'a ->
  ('a, Parse_error.t) result
(** [result t ~len ~require_eof ~stop v] is the shared run epilogue:
    [stop] is the offset reached by the start production ([-1] when it
    failed outright). Produces [Ok v], or the appropriate error for an
    outright failure or an incomplete consume under [require_eof]. *)
