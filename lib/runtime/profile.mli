(** Per-production wall-clock and invocation profiling.

    A [Profile.t] accumulates, per production id: invocation, memo-hit
    and failure counts, and exact self/total time measured with the
    monotonic clock (nanoseconds; the same [CLOCK_MONOTONIC] source the
    bench harness uses). Self time excludes callees; total time is
    wall-clock per outermost activation, so recursive productions are
    not double-counted. Enter/exit pairs are also logged (up to a cap)
    as flamegraph events exportable as speedscope or Chrome-trace JSON.

    The module is a passive sink: {!Observe} drives it from the hooks
    the engine compiles in when profiling is requested. Cost when
    profiling: two clock reads and a few array writes per invocation.
    When profiling is off the engine never calls in, so the cost is
    zero — see DESIGN.md's zero-overhead-when-off argument. *)

type t

val now_ns : unit -> int
(** The raw monotonic clock ([CLOCK_MONOTONIC], nanoseconds) every
    timing in this module is measured with. Exposed so deadline logic —
    the CLI's [--timeout] fuel-slice loop and the batch runner's
    per-document deadlines — uses the same step-immune source instead
    of wall-clock time. *)

val create : names:string array -> t
(** One slot per production; [names] feeds reports and flamegraphs. *)

val enter : t -> int -> unit
(** [enter t prod] opens an activation: counts the invocation, pushes a
    frame, logs an open event. Every [enter] must be closed by {!exit}
    or swept by {!finalize}. *)

val exit : t -> int -> ok:bool -> hit:bool -> unit
(** Close the innermost activation (which must be [prod]'s): attributes
    elapsed time to self/total, counts memo hits and failures, logs a
    close event. *)

val exclude : t -> since:int -> unit
(** [exclude t ~since] leaves the span from the {!now_ns} reading
    [since] until now off the profile's clock: no frame open across it
    (nor its callers) is charged for it, and later timestamps shift back
    by it. The engine excludes each body it compiles on first call, so
    a production's time is what its matcher runs. *)

val finalize : t -> unit
(** Close every activation still open — the run was aborted by a
    resource trip or an exception. Keeps the event log balanced so
    flamegraph exports stay well-formed. *)

(** {1 Reporting} *)

type row = {
  row_prod : int;
  row_name : string;
  row_calls : int;
  row_hits : int;
  row_fails : int;
  row_self_ns : int;
  row_total_ns : int;
}

val rows : t -> row list
(** Productions with at least one invocation, sorted by self time,
    largest first. *)

val invocation_sum : t -> int
(** Total calls across all productions — equals
    [Stats.t.invocations] for the runs observed (the property suite
    checks this). *)

val pp_table : ?top:int -> Format.formatter -> t -> unit
(** The sorted per-production table [rml profile] prints. *)

val events_logged : t -> int

val truncated : t -> bool
(** True when the event log hit its cap; counters keep accumulating but
    flamegraphs only cover the logged prefix. *)

val to_speedscope : ?name:string -> t -> string
(** The evented speedscope JSON document
    (https://www.speedscope.app/file-format-schema.json). *)

val to_chrome : t -> string
(** Chrome [chrome://tracing] / Perfetto JSON array of B/E duration
    events, timestamps in microseconds. *)

(** {1 Batch-level spans}

    A second, coarser trace collector: where {!t} logs one event pair
    per production invocation, a [Spans.t] logs one complete span per
    {e pipeline step} — grammar compile, per-document parse, ladder
    retry — plus instant markers for injected faults, so a whole batch
    run opens in [chrome://tracing] as one timeline. Spans are recorded
    with absolute {!now_ns} timestamps and normalized to the earliest
    event at export. The collector allocates per span (a handful of
    words), which is fine at document granularity; it is opt-in the
    same way metrics are — the batch runner never touches it unless
    one was passed in. *)
module Spans : sig
  type t

  val create : unit -> t

  val span :
    ?cat:string ->
    ?args:(string * string) list ->
    t ->
    name:string ->
    ts_ns:int ->
    dur_ns:int ->
    unit
  (** A complete ("X") event: [ts_ns] is an absolute {!now_ns} reading,
      [dur_ns] the span's length. [args] become the event's [args]
      object (values rendered as JSON strings). *)

  val instant :
    ?cat:string ->
    ?args:(string * string) list ->
    t ->
    name:string ->
    ts_ns:int ->
    unit
  (** A zero-duration ("i", thread-scoped) marker — fault injections,
      heartbeats. *)

  val count : t -> int

  val to_chrome : t -> string
  (** Chrome trace JSON array: "X" events with [dur], "i" instants,
      timestamps in microseconds relative to the earliest event. *)
end
