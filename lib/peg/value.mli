(** Semantic values produced by parsing.

    Rats! productions run host-language actions; its companion xtc front
    ends mostly use {e generic} productions that build uniform syntax-tree
    nodes named after the matched production. The interpretive engine here
    adopts the generic discipline: a parse yields a [Value.t], a uniform
    tree whose shape is driven by production attributes (see {!Attr.kind})
    and by explicit [Node] / [Token] wrappers in the grammar.

    Conventions baked into the engine:
    - string/char {e literals} match but contribute no value (they are
      punctuation and keywords);
    - character {e classes} and [.] contribute the matched byte;
    - a sequence with several meaningful components packs them, labels
      included, into an anonymous tuple node named ["#seq"], which a
      surrounding [Node] wrapper or generic production absorbs as its
      children. *)

open Rats_support

type t =
  | Unit  (** no value: void productions, predicates, dropped literals *)
  | Chr of char  (** a single matched byte (from a class or [.]) *)
  | Str of string  (** matched text: token productions, [Token] captures *)
  | List of t list  (** repetitions *)
  | Node of {
      name : string;  (** constructor / production name; ["#seq"] for tuples *)
      children : (string option * t) list;
          (** components in match order; the label is the [Bind] name
              when the grammar gave one *)
      start_ : int;  (** first input byte the node covers *)
      stop : int;  (** one past the last byte it covers *)
    }
      (** A syntax-tree node. The record is inline, so a node is one
          5-word block (header, name, children, [start_], [stop]) before
          its children: no constructor box and no separate {!Span.t}.
          Read the fields after a match ([Node n -> n.name]); {!span}
          rebuilds the span as a value. *)

val node : ?span:Span.t -> string -> (string option * t) list -> t
(** [node ~span name children] is a node covering [span] (default
    {!Span.dummy}). *)

val node_at : start_:int -> stop:int -> string -> (string option * t) list -> t
(** [node_at ~start_ ~stop name children] is [node ~span:(Span.v
    ~start_ ~stop) name children] without the span block and without
    its bounds check: the engines pass positions they matched. *)

val span : t -> Span.t
(** [span v] is the region node [v] covers; {!Span.dummy} for any
    other value. Allocates the span. *)

val seq_name : string
(** The reserved name of anonymous tuple nodes, ["#seq"]. *)

val seq : ?span:Span.t -> (string option * t) list -> t
(** [seq parts] packs sequence components: drops unlabeled [Unit]s, then
    returns [Unit] for zero parts, the value itself for one unlabeled
    part, and a [seq_name] tuple node otherwise. *)

val seq_at : start_:int -> stop:int -> (string option * t) list -> t
(** [seq_at ~start_ ~stop parts] is [seq ~span:(Span.v ~start_ ~stop)
    parts] without the span block. *)

val empty_list : t
(** [List []], allocated once. Values are immutable, so every empty
    repetition can share it. *)

val empty_part : string option * t
(** [(None, empty_list)], allocated once: the part an empty unlabeled
    repetition contributes to a sequence. *)

val bind : string option -> t -> t
(** [bind label v] is [seq [ (label, v) ]] for a labeled part, built
    without the filtering pass. The engines pass a [Some l] allocated at
    compile time, so a binding allocates only its node. *)

val is_unit : t -> bool

val components : t -> (string option * t) list
(** [components v] is the labeled child list a node wrapper absorbs:
    a ["#seq"] tuple yields its children, [Unit] yields [[]], anything
    else is a singleton. *)

val node_of_parts_at :
  start_:int -> stop:int -> string -> (string option * t) list -> t
(** [node_of_parts_at ~start_ ~stop name parts] is
    [node_at ~start_ ~stop name (components (seq parts))], built without
    the intermediate tuple node: the one node a [Node] wrapper or a
    generic production builds around a sequence. *)

val child : t -> string -> t option
(** [child v l] is the first child of node [v] labeled [l], if any. *)

val child_exn : t -> string -> t

val nth_child : t -> int -> t option
(** [nth_child v i] is the [i]-th (0-based) child value of node [v]. *)

val name : t -> string option
(** [name v] is the node name when [v] is a node. *)

val to_string : t -> string
(** Render as a compact s-expression, spans omitted — stable, used in
    golden tests. Byte-identical to [Format.asprintf "%a" pp], written
    directly into a buffer without [Format]. *)

val output : out_channel -> t -> unit
(** [output oc v] writes [to_string v] to [oc] without building it: the
    renderer hands each line to the channel as it finishes it, so only
    one line is held in memory. No trailing newline; [oc] is not
    flushed. *)

val pp : Format.formatter -> t -> unit
(** The [Format] printer: [hv 1] list boxes and [hv 2] node boxes. The
    oracle {!to_string} is tested against. *)

val equal : t -> t -> bool
(** Structural equality {e ignoring spans} — what tests usually want when
    comparing engines that agree on shape but not bookkeeping. *)

val count_nodes : t -> int
(** Number of [Node] constructors in the tree — a size proxy used by the
    heap-utilization experiment. *)
