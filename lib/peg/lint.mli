(** Grammar lints: composition mistakes that are legal but almost
    certainly not what the author meant. Reported as warnings by
    [rml analyze]; none of them change the parser that is built.

    These matter more in a modular world than in a monolithic one: when
    unrelated modules splice alternatives into the same production, dead
    or duplicate alternatives are easy to create and hard to see — the
    check Rats!'s paper calls out as future work for grammar
    composition. *)

open Rats_support

val check : Analysis.t -> Diagnostic.t list
(** All warnings about the analyzed grammar, in production order. The
    caller's analysis supplies the facts the lints read (nullability,
    reachability), so a caller that has analyzed the grammar already
    (the optimizer driver's gate, [rml analyze]) pays for nothing twice.
    Currently detected:

    - {b duplicate-alternative}: two structurally equal alternatives in
      one choice; the second can never match anything new.
    - {b shadowed-alternative}: a later alternative whose body extends an
      earlier one ([ 'a' / 'a' 'b' ]): whenever the longer one would
      match, the shorter prefix already succeeded — the classic ordering
      mistake when modules splice alternatives into a shared choice.
    - {b dead-alternative}: an alternative placed after one that can
      succeed without consuming input — ordered choice never reaches it.
    - {b redundant-capture}: [$( $(e) )] and [void:void:e] — the inner
      operator is inert.
    - {b always-fails}: a production whose body cannot succeed on any
      input (an empty character class or explicit [%fail] with no
      alternative).
    - {b unreachable-production}: defined but not reachable from the
      start symbol or any public production. *)
