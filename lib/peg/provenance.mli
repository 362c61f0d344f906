(** Stable observation identities for productions and choice arms.

    The observability layer ({!Rats_runtime}) attributes cost and
    coverage to grammar-level entities, not to whatever the engine
    compiled them into. This module assigns those identities once, from
    the prepared grammar itself: production ids follow definition order
    (exactly the id space the engine already uses), and every physical
    [Alt] node gets one set of global arm ids from a deterministic
    pre-order walk. Because the engine compiles each physical [Expr.t]
    node of the grammar once per mode, arm ids are recovered at compile
    time by physical identity.

    The inliner places one shared expansion at every site of a callee,
    so a choice can be reached from several productions. It is counted
    once, and owned by the smallest body that reaches it, the earlier
    production on a tie: the production that defined it when that
    production survives (MiniC's [Spacing]), otherwise the caller that
    absorbed it. An arm matched through any site counts as matched.
    Productions dissolved by the inline pass no longer exist when
    observation ids are assigned; their cost is charged to the caller
    that absorbed them. *)

type arm = {
  arm_prod : int;  (** production id of the enclosing production *)
  arm_choice : int;
      (** ordinal of the [Alt] node among the choices its production owns *)
  arm_index : int;  (** position of the arm inside its choice, from 0 *)
  arm_label : string option;  (** the arm's modification label, if any *)
  arm_body : Expr.t;
      (** the arm's body; reports describe it ({!Pretty.describe}) only
          when they print it *)
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
