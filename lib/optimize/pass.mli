(** A named grammar transformation, as the optimizer driver sees it: a
    name, a one-line doc and a [run] function over the driver's shared
    {!Rats_peg.Analysis_ctx.t}. The canonical ordered registry the
    optimizer, the E3 ladder and the [rml] CLI all share lives in
    {!Pipeline}. *)

open Rats_peg

type t = {
  name : string;  (** registry key, e.g. ["inline"]; unique, CLI-facing *)
  doc : string;  (** one-line description for [rml passes] *)
  run : Analysis_ctx.t -> Grammar.t -> Grammar.t;
}

(** {1 The standard passes}

    One per optimization of the paper's ladder, wrapping {!Passes}. *)

val transients : t
(** Unmemoize single-reference productions. Attribute-only. *)

val terminals : t
(** Unmemoize lexical-level productions. Attribute-only. *)

val inline : t
(** Cost-based inlining of small non-recursive productions (bodies of
    at most 12 nodes, {!Passes.inline_pass}'s default threshold). *)

val fold : t
(** Merge structurally identical private productions. *)

val factor : t
(** Factor common prefixes out of adjacent choice alternatives. *)

val prune : t
(** Drop productions unreachable from the start/public set. *)
