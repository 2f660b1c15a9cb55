(** Record-once / replay-many dispatch traces: the token trace.

    One {!Vmbp_core.Engine} execution of a (workload, technique, scale)
    configuration produces an event stream -- dispatch indirect branches and
    I-cache code fetches -- that does not depend on the CPU model or the
    predictor configuration: {!Vmbp_core.Config.build_layout} is a function
    of technique and cost model only, and predictor/I-cache outcomes never
    feed back into VM semantics.  This module captures that stream once into
    compact dictionary-coded byte chunks, after which {!replay} reproduces the full
    {!Vmbp_core.Engine.result} of a direct run for {e any} CPU or predictor
    override by driving only the hardware simulators -- no VM semantics, no
    layout rebuild.

    Only the decomposition benchmark and the tests use this module: the
    report runner walks each workload's VM path instead
    ({!Vmbp_core.Path_walk}).  Its bank drives the simulators' per-event
    [access]/[fetch], and it keeps no results between calls.

    Storage is dictionary-coded: each stream keeps its distinct events in an
    append-only dictionary and stores the stream itself as 3-byte codes into
    byte chunks, since an interpreter run repeats a small set of
    fetch addresses and dispatch edges millions of times.  Memory stays
    bounded: every chunk and dictionary growth is accounted against the
    caller's cap, and recording aborts (returns [None]) rather than exceed
    it -- callers then fall back to direct simulation. *)

type t

val record :
  ?fuel:int ->
  ?translation:Vmbp_core.Engine.translation ->
  ?cap_bytes:int ->
  layout:Vmbp_core.Code_layout.t ->
  exec:Vmbp_core.Engine.exec ->
  output:(unit -> string) ->
  unit ->
  t option
(** Execute the layout's program once, recording its dispatch and fetch
    event streams plus the deterministic counters, the trap state and the
    session's output.  Returns [None] when the event storage would exceed
    [cap_bytes] bytes (default unlimited), when a stream has more than 2^24
    distinct events, or when an event exceeds the packed encoding's generous
    field widths; the caller must then run cells directly.  A trapped run
    (including fuel exhaustion) records normally: the trace reproduces its
    partial metrics.  [translation] is kept for the benchmark's layer
    timings only: it goes to {!Vmbp_core.Engine.run_events}, which checks
    its length against [layout] and reads nothing else from it. *)

val replay_bank :
  t ->
  predictors:Vmbp_machine.Predictor.kind list ->
  icaches:Vmbp_machine.Icache.config list ->
  int
(** Banked replay: simulate every requested configuration in one traversal
    per stream, one fresh simulator per distinct configuration
    (deduplicated by {!Vmbp_machine.Predictor.create_bank} and
    {!Vmbp_machine.Icache.create_bank}; invalid ones, whose constructor
    raises, are skipped).  Each block of 2048 tokens is decoded once into
    an int array of dictionary codes, and every configuration then runs
    the whole block through its per-event {!Vmbp_machine.Predictor.access}
    or {!Vmbp_machine.Icache.fetch} before the next configuration starts.
    A stream with no configuration to drive is not walked.  Returns the
    number of distinct valid configurations simulated; their counts are
    dropped (see {!replay}).  Raises [Invalid_argument] on a [release]d
    trace. *)

val replay :
  t ->
  configs:(Vmbp_machine.Cpu_model.t * Vmbp_machine.Predictor.kind) list ->
  Vmbp_core.Engine.result list
(** One result per [(cpu, predictor)] of [configs], in order, from one
    {!replay_bank} pass over every predictor and every CPU's I-cache.
    Each result is field-for-field identical to what [Engine.run] would
    produce for that configuration.  A configuration whose simulator
    constructor raises re-raises that error.  Raises [Invalid_argument] on
    a [release]d trace. *)

val release : t -> unit
(** Drop the trace's chunks.  The trace must not be replayed afterwards
    ([replay] and [replay_bank] raise); releasing twice raises. *)

val bytes : t -> int
(** Bytes allocated for the event storage (the quantity capped by
    [cap_bytes]), for cache accounting. *)

val steps : t -> int

val output : t -> string
(** The recorded session's program output. *)

val dispatch_events : t -> int
val fetch_events : t -> int
