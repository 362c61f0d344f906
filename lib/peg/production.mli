(** A single grammar production: attributes, name, parsing expression. *)

open Rats_support

type t = {
  name : string;  (** flat (post-composition) nonterminal name *)
  attrs : Attr.t;
  expr : Expr.t;
  loc : Span.t;  (** definition site in the grammar source *)
  origin : string;
      (** name of the grammar module that contributed this production;
          [""] for synthesized ones — feeds the E1 statistics *)
}

val v : ?attrs:Attr.t -> ?loc:Span.t -> ?origin:string -> string -> Expr.t -> t
val with_expr : t -> Expr.t -> t
(** [with_expr p e] is [p] itself when [e] is physically [p.expr]. *)

val with_attrs : t -> Attr.t -> t
val is_public : t -> bool
val size : t -> int
(** IR size of the body. *)

val equal : t -> t -> bool
(** Ignores spans and origins: same name, attributes and body; true at
    once for physically equal productions. *)
