(** The built-in grammars, composed (and optimized) when [rml] was
    built. *)

val find : string -> optimized:bool -> Rats_peg.Grammar.t option
(** [find name ~optimized]: what {!Rats.Run.grammar_of} builds for
    [--builtin name], with [-O] when [optimized]; [None] for a name that
    is not a built-in. Each call unmarshals a fresh copy. *)
