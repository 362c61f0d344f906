(** The built-in grammars, composed (and optimized) when [rml] was
    built, each with the facts preparing and compiling it reads. *)

val find : string -> optimized:bool -> Rats_peg.Analysis.t option
(** [find name ~optimized]: what {!Rats.Run.analysis_of} builds for
    [--builtin name], with [-O] when [optimized], holding every fact
    {!Rats_runtime.Engine.compile_all} computed for it; [None] for a
    name that is not a built-in. Each call unmarshals a fresh copy, for
    one engine to own. *)
