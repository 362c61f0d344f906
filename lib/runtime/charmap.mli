(** Character sets lowered for the matchers.

    Character classes and FIRST-set dispatch guards test one byte per
    visit, so the engine compiles a {!Rats_peg.Charset.t} to a
    256-byte lookup table ([Charset.mem] on the four-word bit vector
    would box an [Int64] per probe), paired with the expected-set
    description a failed match records. A table made per prepare lowers
    each distinct set once, however many sites, alternatives and
    compilations (full and recognizer) share it. *)

open Rats_peg

type t

val create : unit -> t

val lower : t -> Charset.t -> Bytes.t * string
(** [lower t set] is [set]'s bitmap (byte [c] is non-zero iff [c] is in
    [set]) and its description, {!Charset.to_string}. Both are shared
    between callers and must not be mutated. *)
