(** A flat, closed grammar: ordered productions plus a start symbol.

    This is what the module resolver produces and everything downstream
    consumes. The constructor validates that production names are unique;
    {!check_closed} additionally reports dangling references. Lookup is
    O(1) through an internal index. *)

open Rats_support

type t

val make : ?start:string -> Production.t list -> (t, Diagnostic.t) result
(** [make ~start prods] builds a grammar. [start] defaults to the first
    public production, or failing that the first production. Errors on an
    empty production list, duplicate names, or a start symbol that is not
    defined. *)

val make_exn : ?start:string -> Production.t list -> t
(** Like {!make} but raises {!Rats_support.Diagnostic.Fail}. *)

val start : t -> string
val with_start : t -> string -> (t, Diagnostic.t) result
val productions : t -> Production.t list
(** In definition order. *)

val names : t -> string list
val find : t -> string -> Production.t option
val find_exn : t -> string -> Production.t
val mem : t -> string -> bool
val length : t -> int

val size : t -> int
(** Total IR nodes across all production bodies. *)

val map : (Production.t -> Production.t) -> t -> t
(** [map f g] transforms every production. [f] must preserve names.
    When [f] returns every production physically unchanged, the result
    is [g] itself. *)

val update : t -> string -> (Production.t -> Production.t) -> t
(** [update g name f] replaces the named production; raises
    [Invalid_argument] when absent or renamed. *)

val add : t -> Production.t -> (t, Diagnostic.t) result
(** Appends a new production; errors on duplicate names. *)

val remove : t -> string -> t
(** Removes a production if present. Does not touch references; use
    {!check_closed} afterwards. *)

val check_closed : t -> Diagnostic.t list
(** Dangling-reference report: one error per production that mentions an
    undefined nonterminal. Empty means closed. *)

val restrict : t -> keep:(string -> bool) -> t
(** Keep only the named productions (callers ensure closure); [g]
    itself when every production is kept. *)
