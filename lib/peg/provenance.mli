(** Stable observation identities for productions and choice arms.

    The observability layer ({!Rats_runtime}) attributes cost and
    coverage to grammar-level entities, not to whatever the engine
    compiled them into. This module assigns those identities once, from
    the prepared grammar itself: production ids follow definition order
    (exactly the id space the engine already uses), and every arm of
    every [Alt] node gets a global arm id from a deterministic pre-order
    walk. Because the engine compiles the physical [Expr.t] nodes of the
    grammar, arm ids are recovered at compile time by physical identity
    — robust against a body being compiled more than once (the engine
    compiles each production twice, matcher and recognizer).

    Productions dissolved by the grammar-level inline pass no longer
    exist when observation ids are assigned; their cost is charged to
    the caller that absorbed them. *)

type arm = {
  arm_prod : int;  (** production id of the enclosing production *)
  arm_choice : int;  (** ordinal of the [Alt] node within that production *)
  arm_index : int;  (** position of the arm inside its choice, from 0 *)
  arm_label : string option;  (** the arm's modification label, if any *)
  arm_desc : string;  (** pretty-printed arm body, truncated *)
}

type t

val of_grammar : Grammar.t -> t
(** Walk the grammar once and assign every identity. Deterministic: the
    same grammar value always yields the same numbering. *)

val nprods : t -> int
val prod_name : t -> int -> string

val prod_origin : t -> int -> string
(** The module that contributed the production ([""] for synthesized
    ones) — what [rml coverage] reports next to dead alternatives. *)

val prod_id : t -> string -> int option

val narms : t -> int
val arm : t -> int -> arm

val arms_of : t -> Expr.alt list -> int
(** [arms_of t alts] is the arm id of [alts]'s first arm, found by
    physical identity; the remaining arms follow consecutively. Returns
    [-1] for a list that is not part of the walked grammar (a
    synthesized choice the optimizer created after the walk — observed
    conservatively as nothing). *)

val pp_arm : t -> Format.formatter -> int -> unit
(** ["Prod / choice 2 / arm 1 (label)"] — the human-readable identity
    used by coverage reports. *)
