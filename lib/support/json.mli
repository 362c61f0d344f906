(** JSON string literals, the one writer every JSON and JSONL output of
    the system uses. *)

val add_string : Buffer.t -> string -> unit
(** [add_string b s] appends [s] as a JSON string literal, quotes
    included: a double quote and a backslash are escaped with a
    backslash; newline, carriage return and tab are written [\n], [\r]
    and [\t], every other byte below 0x20 as [\u00XX]; all other bytes
    are copied as they are. The [rml parse --batch] JSONL records are
    written with it, byte for byte. *)

val string : string -> string
(** {!add_string} into a string of its own. *)
