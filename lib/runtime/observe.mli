(** The parse observability layer: profiler, trace ring, coverage.

    {!want} is the capability record carried by {!Config.t} — pure data,
    so configurations stay structurally comparable. When every
    capability is off (the default), preparation compiles exactly the
    code it compiled before this layer existed: the engine wraps
    nothing — the zero-cost-when-off contract the bench suite verifies.

    When something is on, preparation creates one {!t} sink per engine
    and compiles direct calls to it: the engine wraps each production's
    matcher and recognizer. The sink accumulates across runs (coverage
    over a corpus, profiles over repeated parses); it is observation
    only — nothing here touches fuel, depth, or the memo byte budget.

    Event streams are deterministic: the same (grammar, input, flags)
    always yields the same event sequence — enter and memo-hit
    positions, exits, backtracks, trips. *)

open Rats_peg

(** {1 The capability record} *)

type want = {
  profile : bool;  (** per-production counters + timing + flame events *)
  coverage : bool;  (** production and choice-arm hit counters *)
  events : bool;  (** the bounded trace ring *)
  ring_bytes : int;  (** ring byte budget; one event costs {!event_bytes} *)
}

val off : want
val all : ?ring_bytes:int -> unit -> want
val enabled : want -> bool

val event_bytes : int
(** Bytes one ring slot occupies (flat int fields, no per-event
    allocation). *)

(** {1 The sink} *)

type kind =
  | Enter  (** production invocation began; [aux] = -1 *)
  | Exit_ok  (** body succeeded; [aux] = stop offset *)
  | Exit_fail  (** body failed *)
  | Memo_hit  (** answered from the memo table; [aux] = stop or -1 *)
  | Memo_reuse
      (** session reparse started with surviving entries; [pos] =
          reused count, [aux] = relocated count *)
  | Backtrack  (** a choice arm failed; [pos] = the choice's offset *)
  | Govern_trip  (** a budget ran out; [id] = {!Limits.which} ordinal *)

type event = { kind : kind; id : int; pos : int; aux : int }
(** [id] is a production id (or -1 where not applicable). *)

type t

val create : want -> Provenance.t -> t

val want : t -> want
val provenance : t -> Provenance.t
val profile : t -> Profile.t option

(** {1 Hooks — called by the engine} *)

val enter : t -> int -> int -> unit
(** [enter t prod pos]: invocation begins (before fuel is charged, so an
    exhausted invocation still appears in the trace). *)

val exit : t -> int -> int -> stop:int -> unit
(** [exit t prod pos ~stop]: the invocation ran its body and returned
    [stop] ([-1] = failure). *)

val memo_hit : t -> int -> int -> stop:int -> unit
(** The invocation was answered from the memo table instead. *)

val alt_tried : t -> int -> unit
(** [alt_tried t arm]: the arm's body began executing (arm id from
    {!Provenance.arms_of}; -1 ids are ignored). *)

val alt_matched : t -> int -> unit

val backtrack : t -> int -> unit
(** A choice arm failed at the given choice offset; the next arm (or the
    choice's failure) is up. *)

val session_reuse : t -> reused:int -> relocated:int -> unit
val trip : t -> Limits.which -> int -> unit

val finalize : t -> unit
(** Sweep profiler frames left open by an aborted run; call at every
    run epilogue. *)

(** {1 Reading the sink} *)

val events : t -> event list
(** Retained ring contents, oldest first (at most the ring capacity;
    earlier events were overwritten). *)

val events_seen : t -> int
(** Total events ever pushed, including overwritten ones. *)

val ring_capacity : t -> int
val kind_name : kind -> string

val pp_events : ?input:string -> ?last:int -> Format.formatter -> t -> unit
(** Human-readable event dump, newest last, with [line:col] positions
    and a source excerpt each time the position changes — the renderer
    behind [rml trace]. *)

(** {1 Coverage} *)

val prod_covered : t -> int -> bool
val arm_tried : t -> int -> bool
val arm_matched : t -> int -> bool

val coverage_summary : t -> int * int * int * int
(** [(prods_hit, nprods, arms_matched, narms)]. *)

val unexercised : t -> int list * int list
(** [(productions never invoked, arms never matched)] — dead rungs of
    the composed grammar on the observed corpus. *)

val pp_coverage : Format.formatter -> t -> unit
(** The [rml coverage] report: summary plus one line per unexercised
    alternative with its defining module. *)
