(** Phase-timing spans, dumped as Chrome trace-event JSON.

    A span measures one wall-clock phase (layout building, an engine run, a
    path walk, a store append, a request admission, ...) on whichever
    domain executed it.  Collection is off by default: a disabled {!with_}
    is one atomic load plus the call of [f], so instrumented code paths
    cost nothing measurable in production runs.  When enabled, completed
    spans accumulate in a process-global buffer (mutex-protected; worker
    domains record concurrently) and {!write} renders them in the Chrome
    trace-event format, which Perfetto and chrome://tracing load directly:
    one track per worker domain, nesting inferred from time containment.

    Spans additionally carry explicit linkage for end-to-end request
    tracing: every span has an [id] (allocated at span start), a lexical
    [parent] (the enclosing {!with_} span on the same domain, or -1), and
    an optional [trace] string naming the request id the span serves.
    Cross-domain fan-in (one compute batch serving many request ids) is
    expressed through args rather than parentage. *)

type event = {
  name : string;
  ts : float;  (** start, seconds since {!enable} *)
  dur : float;  (** duration, seconds *)
  tid : int;  (** domain id of the recording domain *)
  id : int;  (** span id, unique within one enable window *)
  parent : int;  (** enclosing span id on the same domain, or -1 *)
  trace : string;  (** request/trace id, [""] when unlinked *)
  args : (string * string) list;
}

val set_clock : (unit -> float) -> unit
(** Substitute the timestamp source (default [Unix.gettimeofday]).  The
    simulator installs its virtual clock here; daemons install the [Env]
    clock.  Install before {!enable} so the origin and all spans come
    from the same clock. *)

val now : unit -> float
(** Read the current clock (whatever {!set_clock} installed). *)

val enable : unit -> unit
(** Start collecting: clears previously collected spans, re-anchors the
    time origin, and resets the span-id counter (so a deterministic
    schedule yields deterministic ids). *)

val disable : unit -> unit
(** Stop collecting; already collected spans remain readable. *)

val is_enabled : unit -> bool

val with_ :
  ?args:(string * string) list ->
  ?trace:string ->
  name:string ->
  (unit -> 'a) ->
  'a
(** Run [f], recording one span around it when collection is enabled.  The
    span is recorded even when [f] raises (the exception is re-raised), so
    a failing phase still shows its duration.  Nested [with_] calls on the
    same domain record their enclosing span as [parent]. *)

val interval :
  ?args:(string * string) list ->
  ?trace:string ->
  ?parent:int ->
  name:string ->
  float ->
  float ->
  unit
(** [interval ~name t0 t1] records a completed span from [t0] to [t1]
    (clock timestamps) without scoping: for phases whose start and finish
    are observed in different event-loop iterations (request receive to
    reply flush).  [parent] defaults to the innermost open {!with_} span
    on the calling domain. *)

val current : unit -> int
(** Id of the innermost open {!with_} span on this domain, or -1. *)

val events : unit -> event list
(** Completed spans in completion order (inner spans precede the spans
    that enclose them). *)

val count : unit -> int

val to_json : unit -> string
(** The collected spans as a Chrome trace-event JSON document:
    [{"traceEvents":[{"ph":"X","name":...,"ts":...,"dur":...,"pid":1,
    "tid":<domain>,"args":{"span":...,"parent":...,"trace":...,...}},
    ...]}] with [ts]/[dur] in microseconds.  [span]/[parent]/[trace]
    render as string-valued args so stock trace viewers display them. *)

val write : file:string -> unit
(** [to_json] into [file]. *)
