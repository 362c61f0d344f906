(** Farthest-failure tracking.

    The engine reports errors as the input offset that the parse got
    farthest to before failing, together with the descriptions
    of what could have matched there. Descriptions are deduplicated —
    backtracking retries the same expression at the same position many
    times, and duplicates would otherwise crowd distinct expectations
    out of the capped list.

    Matchers record integer ids, not strings: every description a
    compiled body can record is interned into a {!names} table when the
    body is compiled, so recording is a compare and an array probe.
    The table keeps what each description is printed from (a literal, a
    character, a character set, a predicate body), and prints it the
    first time an error reports it; later errors reuse the string. *)

(** {1 Description ids} *)

type names
(** An interning table: id -> description, ids dense from 0. *)

val names : unit -> names

val lock : names -> Mutex.t
(** The table's lock. {!descriptions} takes it to print; a caller that
    interns while other domains may report errors from the same table
    holds it (the engine's compile on first call does). *)

val intern : names -> string -> int
(** [intern ns desc] is [desc]'s id, hashed: a description interned
    twice gets the same id. *)

val intern_literal : names -> string -> int
(** The id of a string literal's quoted form
    ({!Rats_peg.Pretty.quote_string}), hashed on the literal itself, so
    a literal is quoted once however many sites match it. *)

val intern_char : names -> char -> int
(** The id of a character's quoted form ({!Rats_peg.Pretty.quote_char}),
    found through a 256-entry table instead of a hash. *)

val fresh : names -> string -> int
(** A new id for [desc], without the hash lookup. Ids sharing a string
    are reported once: see {!descriptions}. *)

val fresh_set : names -> Rats_peg.Charset.t -> int
(** A new id described by {!Rats_peg.Charset.to_string} of the set, for
    callers that cache ids per set themselves ({!Charmap}). *)

val fresh_pred : names -> positive:bool -> Rats_peg.Expr.t -> int
(** A new id for a predicate over [body]: ["&"] and the body's
    description when [positive], ["not "] and {!Rats_peg.Pretty.describe}
    of it otherwise. A one-byte body ([Chr], [Cls], [Any]) is described
    as its matcher is. *)

val describe : names -> int -> string
(** The description of an id, printed on the first call and kept. *)

(** {1 Tracking} *)

type t

val max_entries : int
(** Cap on reported descriptions per position (32). When more distinct
    descriptions fail at the farthest position, the reported set is the
    [max_entries] lexicographically smallest of them — a deterministic,
    arrival-order-independent rule, so configurations that visit
    alternatives in different orders always report the same set. *)

val create : names -> t
(** A tracker sized for the ids interned in [names] so far; it grows
    when it records an id interned later. *)

val reset : t -> unit
(** Forget every record, in O(1). *)

val record : t -> int -> int -> unit
(** [record t pos id] notes that description [id] failed to match at
    [pos] ([pos >= 0]). A new farthest position resets the list; at
    the current farthest position the id joins the list unless already
    present; earlier positions are ignored. Allocation-free, unless
    [id] was interned after the tracker was sized. *)

val farthest : t -> int
(** Farthest failure offset seen, [-1] if none. *)

val descriptions : t -> string list
(** Deduplicated descriptions at the farthest position, oldest first,
    capped by {!max_entries}: the recorded ids are replayed in arrival
    order through a bounded list that skips a description it already
    holds and, once full, lets a new description evict the largest
    held one iff it is smaller. Each description is printed the first
    time it is reported ({!describe}), under the names' {!lock}. *)

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
