(** Sets of bytes, the alphabet of our scannerless PEGs.

    Rats! parses at the character level — the lexicon is part of the
    grammar — so character classes are pervasive and must be cheap. A set
    is eight immediate 32-bit words; membership is two shifts and a mask,
    and every operation that builds a set allocates one block. Sets are
    immutable. *)

type t

val empty : t
val full : t
(** [full] contains every byte 0..255. *)

val singleton : char -> t
val range : char -> char -> t
(** [range lo hi] is the inclusive range; empty when [hi < lo]. *)

val of_string : string -> t
(** [of_string s] contains exactly the bytes occurring in [s]. *)

val of_list : char list -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val complement : t -> t
val add : char -> t -> t
val remove : char -> t -> t
val mem : char -> t -> bool
val is_empty : t -> bool
val cardinal : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
(** Sets ordered as the 256-bit numbers [sum of 2^b for b in s]: the set
    holding the highest byte on which two sets differ is the greater. *)

val subset : t -> t -> bool
(** [subset a b] is true when every byte of [a] is in [b]. *)

val disjoint : t -> t -> bool
val iter : (char -> unit) -> t -> unit
val fold : (char -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> char list
val choose : t -> char option
(** [choose s] is the smallest element, if any. *)

val hash : t -> int
(** Equal sets hash equally. *)

val pp : Format.formatter -> t -> unit
(** [pp] prints in grammar-class syntax, e.g. [[a-z0-9_]], escaping
    non-printable bytes and collapsing runs into ranges. *)

val to_string : t -> string
