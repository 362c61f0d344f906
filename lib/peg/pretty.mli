(** Printing PEG IR back as grammar source.

    The syntax is the module language of {!Rats_meta}: printing a grammar
    and re-parsing it yields a structurally equal grammar (a property the
    test suite checks). Used by [rml compose --print], golden tests and
    error messages. *)

val pp_expr : Format.formatter -> Expr.t -> unit
(** Prints at choice precedence; inserts parentheses as needed. *)

val expr_to_string : Expr.t -> string

val describe : Expr.t -> string
(** [expr_to_string e] cut to 40 characters: its first 37 and ["..."]
    when longer. Prints no more of [e] than that needs, so a large body
    costs what a small one does. Expected sets and coverage arms use it
    to name predicate bodies and alternatives. *)

val pp_production : Format.formatter -> Production.t -> unit
(** One production, [attrs kind Name = body ;] on as many lines as the
    body needs. *)

val pp_grammar : Format.formatter -> Grammar.t -> unit
(** All productions in definition order, start symbol first in a
    comment header. *)

val grammar_to_string : Grammar.t -> string

val quote_string : string -> string
(** ["text"] with grammar-source escaping — also the engine's
    description of a literal in expected sets. *)

val quote_char : char -> string
(** ['c'] with grammar-source escaping. *)

val attr_words : Attr.t -> string list
(** Non-default attributes as source keywords in canonical order, e.g.
    [["public"; "transient"; "void"]]. *)
