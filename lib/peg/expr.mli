(** Parsing-expression IR.

    This is the single intermediate form shared by the whole pipeline:
    the module resolver lowers grammar modules into it, the optimizer
    rewrites it, the packrat engine compiles it and the printer prints it
    back as grammar source. Every node carries the span of the grammar
    source it came from ([Span.dummy] for synthesized nodes). *)

open Rats_support

type t = { it : desc; loc : Span.t }

and desc =
  | Empty  (** ε — always succeeds, consumes nothing *)
  | Fail of string  (** always fails; the string names what was expected *)
  | Any  (** [.] — any single byte *)
  | Chr of char  (** literal byte; yields no value *)
  | Str of string  (** literal text; yields no value *)
  | Cls of Charset.t  (** character class; yields the matched byte *)
  | Ref of string  (** nonterminal reference (resolved, flat name) *)
  | Seq of t list  (** sequence; at least two elements after smart cons *)
  | Alt of alt list  (** ordered choice; labels serve modifications *)
  | Star of t  (** zero or more; yields a list *)
  | Plus of t  (** one or more; yields a list *)
  | Opt of t  (** optional; yields the value or [Unit] *)
  | And of t  (** [&e] syntactic predicate; consumes nothing, no value *)
  | Not of t  (** [!e] syntactic predicate; consumes nothing, no value *)
  | Bind of string * t  (** [x:e] — labels e's value in the enclosing node *)
  | Token of t  (** yield the text matched by the body *)
  | Node of string * t  (** wrap the body's components in a named node *)
  | Drop of t  (** match the body, discard its value *)
  | Splice of t
      (** match the body and splice its components into the enclosing
          sequence's child list — synthesized by prefix factoring so the
          rewrite preserves semantic values *)
  | Record of string * t
      (** match the body, then add its text to the named parser-state
          table — our rendering of Rats!'s stateful parsing (C typedefs) *)
  | Member of string * bool * t
      (** match the body, then succeed iff its text is (when [true]) or is
          not (when [false]) in the named state table *)

and alt = { label : string option; body : t }

(** {1 Smart constructors}

    All take an optional [?loc] and normalize on the fly: nested
    sequences are flattened, singleton sequences/choices collapse,
    [Str] of length 1 becomes [Chr], empty [Str] becomes [Empty]. *)

val mk : ?loc:Span.t -> desc -> t
val empty : t
val fail : ?loc:Span.t -> string -> t
val any : ?loc:Span.t -> unit -> t
val chr : ?loc:Span.t -> char -> t
val str : ?loc:Span.t -> string -> t
val cls : ?loc:Span.t -> Charset.t -> t
val range : ?loc:Span.t -> char -> char -> t
val one_of : ?loc:Span.t -> string -> t
val ref_ : ?loc:Span.t -> string -> t
val seq : ?loc:Span.t -> t list -> t
val alt : ?loc:Span.t -> t list -> t
val alt_labeled : ?loc:Span.t -> alt list -> t
val star : ?loc:Span.t -> t -> t
val plus : ?loc:Span.t -> t -> t
val opt : ?loc:Span.t -> t -> t
val and_ : ?loc:Span.t -> t -> t
val not_ : ?loc:Span.t -> t -> t
val bind : ?loc:Span.t -> string -> t -> t
val token : ?loc:Span.t -> t -> t
val node : ?loc:Span.t -> string -> t -> t
val drop : ?loc:Span.t -> t -> t
val splice : ?loc:Span.t -> t -> t
val record : ?loc:Span.t -> string -> t -> t
val member : ?loc:Span.t -> string -> bool -> t -> t

(** {1 Traversal and queries} *)

val map_children : (t -> t) -> t -> t
(** [map_children f e] rebuilds [e] with [f] applied to each immediate
    subexpression (not recursively). When [f] returns every child
    physically unchanged, the result is [e] itself and nothing is
    allocated; otherwise only the spine above a changed child is new,
    and unchanged siblings stay shared. *)

val iter_children : (t -> unit) -> t -> unit

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over [e] and all its descendants. *)

val refs : t -> string list
(** All nonterminal names referenced, in first-occurrence order, deduped. *)

val size : t -> int
(** Number of IR nodes — the optimizer's cost metric. *)

val equal : t -> t -> bool
(** Structural equality ignoring spans; physically equal subtrees are
    equal without being walked. *)

val is_stateful : t -> bool
(** True when the expression itself contains [Record]/[Member] (does not
    chase [Ref]s; see {!Analysis.stateful_set} for the transitive
    version). *)

val shallow_hash : t -> int
(** A hash of a node's first few structural values: its constructor,
    its span and little more. Cheap, and enough to spread a grammar's
    nodes over a table; physically equal nodes hash equally, and so do
    structurally equal ones with equal spans. *)

module Phys : Hashtbl.S with type key = t
(** Tables keyed by node identity ([==]), hashed with {!shallow_hash}. *)

val rename_refs : (string -> string) -> t -> t
(** Rewrite every [Ref] name — used when flattening module namespaces.
    Like {!map_children}, returns [e] itself when no name changes. *)
