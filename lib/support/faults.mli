(** Deterministic fault injection for robustness testing.

    A fault plan describes failures to inject into a batch run: truncate
    or error a document read at a chosen byte, cap the fuel or memo
    budget so the existing govern brackets trip at a chosen invocation,
    or skew the deadline clock. Plans are seeded: whether a given
    document is faulted is a pure function of [(seed, document index)],
    so a chaos run replays exactly from its spec string.

    The layer is {e compiled out when absent} in the same sense as the
    observability hooks (PR 5): the engines know nothing about faults.
    Truncation and I/O faults act in the read path before an input
    buffer exists; fuel/memo faults are ordinary {e finite limits}
    handled by the governor the engine already compiles in; clock
    skew perturbs the batch runner's deadline reads. A parse with no
    plan runs byte-identical code to one where this module was never
    linked. *)

type fault =
  | Truncate of int
      (** deliver only the first [k] bytes of the document *)
  | Io_error of int
      (** fail the read once [k] bytes have been delivered (an
          end-of-file probe counts: a document of exactly [k] bytes
          still trips) *)
  | Fuel_cap of int  (** cap the fuel budget at [k] invocations *)
  | Memo_cap of int  (** cap the memo budget at [k] bytes *)
  | Clock_skew of int
      (** advance every deadline-clock reading after the first by [k]
          nanoseconds — simulates a clock step right after the deadline
          was armed *)

type t = {
  seed : int;
  rate_ppm : int;
      (** probability, in parts per million, that a given document
          receives the plan's faults; [1_000_000] = every document *)
  faults : fault list;
}

val none : t
(** The empty plan: no faults, nothing injected anywhere. *)

val is_none : t -> bool

val v : ?seed:int -> ?rate:float -> fault list -> t
(** [rate] (default [1.0]) is clamped to [0..1] and stored in ppm. *)

val active_for : t -> int -> fault list
(** The faults injected into document [index]: all of [t.faults] when
    the seeded coin lands under [rate_ppm], none otherwise. Pure in
    [(t.seed, t.rate_ppm, index)]. *)

(** {1 Plan accessors} — first matching fault, if any. *)

val truncate_at : fault list -> int option
val io_error_at : fault list -> int option
val fuel_cap : fault list -> int option
val memo_cap : fault list -> int option

val clock_skew_ns : fault list -> int
(** Summed skew; [0] when absent. *)

(** {1 Spec strings}

    The CLI surface: a comma-separated list of
    [seed=N], [rate=F], [trunc@N], [io@N], [fuel@N], [memo@N],
    [skew@NS] — e.g. ["seed=42,rate=0.25,trunc@512,fuel@10000"]. *)

val of_spec : string -> (t, string) result
val to_spec : t -> string
(** Round-trips through {!of_spec}. *)

val pp : Format.formatter -> t -> unit

(** {1 Guarded reads}

    The bounded, fault-aware read path shared by the batch runner and
    [rml parse --stdin]. *)

type read_error =
  | Too_large of int
      (** the stream exceeded the byte cap; the payload is the cap *)
  | Io_fault of string  (** injected or real I/O failure *)

val read_error_message : read_error -> string

val read_channel :
  ?cap:int ->
  ?faults:fault list ->
  in_channel ->
  (string, read_error) result
(** Chunked read of a whole channel that stops early: at an
    {!Io_error} point (failing), as soon as the stream exceeds [cap]
    bytes ([Too_large] — at most [cap + 1] bytes are ever buffered, so
    an unbounded stream cannot exhaust memory), or at a {!Truncate}
    point (delivering the prefix — unless that prefix is itself over
    [cap], which is [Too_large] like any other over-cap document).
    Real [Sys_error]s from the channel are returned as [Io_fault]. *)

val apply_to_string :
  ?cap:int -> ?faults:fault list -> string -> (string, read_error) result
(** The same contract over an already-materialized document (a
    delimited stream segment): truncation keeps the prefix, an
    {!Io_error} whose threshold the delivered bytes reach fails, a
    post-fault document longer than [cap] is [Too_large]. Agrees with
    {!read_channel} on every (document, cap, faults) triple. *)
