(** Character sets lowered for the matchers.

    Character classes and FIRST-set dispatch guards test one byte per
    visit, so the engine compiles a {!Rats_peg.Charset.t} to a
    256-byte lookup table ([Charset.mem] on the four-word bit vector
    would box an [Int64] per probe), paired with the id of the
    expected-set description a failed match records. A table made per
    prepare lowers each distinct set once, however many sites,
    alternatives and compilations (full and recognizer) share it. *)

open Rats_peg

type t

val create : Expected.names -> t
(** A table interning each set's description into the given names. *)

val lower : t -> Charset.t -> Bytes.t * int
(** [lower t set] is [set]'s bitmap (byte [c] is non-zero iff [c] is in
    [set]) and the id of its description, {!Charset.to_string}, taken
    once per distinct set — the set lookup is the interning. The bitmap
    is shared between callers and must not be mutated. *)
