(** Record-once / replay-many dispatch traces.

    One {!Vmbp_core.Engine} execution of a (workload, technique, scale)
    configuration produces an event stream -- dispatch indirect branches and
    I-cache code fetches -- that does not depend on the CPU model or the
    predictor configuration: {!Vmbp_core.Config.build_layout} is a function
    of technique and cost model only, and predictor/I-cache outcomes never
    feed back into VM semantics.  This module captures that stream once into
    compact dictionary-coded byte chunks, after which {!replay} reproduces the full
    {!Vmbp_core.Engine.result} of a direct run for {e any} CPU or predictor
    override by driving only the hardware simulators -- no VM semantics, no
    layout rebuild.  The report runner no longer records traces -- it walks
    each workload's VM path instead ({!Vmbp_core.Path_walk}); the
    decomposition benchmark and the tests still time and check this
    tier.

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
  ?poll:(unit -> unit) ->
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
    partial metrics.  [poll] is the engine's cooperative watchdog hook (see
    {!Vmbp_core.Engine.run_events}); an exception it raises aborts the
    recording like any other run failure.  [translation] is kept for the
    benchmark's layer timings only: it goes to
    {!Vmbp_core.Engine.run_events}, which checks its length against
    [layout] and reads nothing else from it. *)

val replay_bank :
  ?poll:(unit -> unit) ->
  t ->
  predictors:Vmbp_machine.Predictor.kind list ->
  icaches:Vmbp_machine.Icache.config list ->
  int
(** Banked replay: simulate every requested configuration in one traversal
    per stream, one simulator per distinct, not-yet-memoized
    configuration.  The walk is config-major over decoded blocks: each
    block of 2048 tokens is decoded once into an int array of dictionary
    codes, and every configuration then runs the whole block through its
    family's kernel ({!Vmbp_machine.Predictor.replay_block},
    {!Vmbp_machine.Icache.replay_block}) before the next configuration
    starts.  The dispatch dictionary is split into branch, target, opcode
    and VM-transfer columns once per bank.  The kernels live in the
    simulator modules because the libraries build with [-opaque]: nothing
    inlines across modules, so only a loop inside the simulator's own
    module can inline its access path, and this walk pays one call per
    block instead of one per token.  The results land in the trace's memo
    tables, from which {!replay} and {!replay_memo} then answer at
    cost-model price.  Returns the number of
    configurations freshly simulated (0 when everything was already
    memoized).  Configurations are deduplicated by their canonical
    descriptor; invalid ones (whose simulator constructor raises) are
    skipped and left un-memoized, so the error surfaces on the per-cell
    path that actually uses them.

    Polling contract: [poll] is invoked once on entry -- regardless of
    memo state, so a long run of memo-served groups cannot blind-spot a
    watchdog deadline -- and then after every 65536 tokens of each stream
    walk (the block size divides 65536), so a bank that walks [n]
    dispatch and [m] fetch tokens polls [1 + n / 65536 + m / 65536]
    times.  Raises [Invalid_argument] on a [release]d trace. *)

val replay :
  ?poll:(unit -> unit) ->
  t ->
  cpu:Vmbp_machine.Cpu_model.t ->
  predictor:Vmbp_machine.Predictor.kind ->
  Vmbp_core.Engine.result
(** Drive a fresh predictor and I-cache of the given configuration over the
    recorded streams (a singleton {!replay_bank}).  The result is
    field-for-field identical to what [Engine.run] would produce for the
    same configuration.  Per-configuration simulator outcomes are memoized
    on the trace, so replaying a repeated predictor kind or I-cache
    geometry (as the sweep experiments do) costs only the cost-model
    arithmetic.  [poll] follows {!replay_bank}'s contract (entry poll even
    when fully memoized, then every 65536 tokens).  Raises
    [Invalid_argument] on a [release]d trace. *)

val replay_memo :
  t ->
  cpu:Vmbp_machine.Cpu_model.t ->
  predictor:Vmbp_machine.Predictor.kind ->
  Vmbp_core.Engine.result option
(** [replay], answered purely from the memo tables: [Some] exactly when both
    the predictor kind and the I-cache geometry have been replayed on this
    trace before.  Valid on a [release]d trace -- the memos, base counters
    and output outlive the chunks -- so a released trace still resolves
    every configuration it ever served, at cost-model price. *)

val release : t -> unit
(** Drop the trace's chunks, keeping its memo tables.  The trace must not
    be replayed afterwards ([replay] raises); releasing twice raises. *)

val bytes : t -> int
(** Bytes allocated for the event storage (the quantity capped by
    [cap_bytes]), for cache accounting. *)

val steps : t -> int
val trapped : t -> string option

val output : t -> string
(** The recorded session's program output. *)

val dispatch_events : t -> int
val fetch_events : t -> int

val memo_sizes : t -> int * int
(** Number of bindings in the (predictor, I-cache) memo tables, including
    any duplicate bindings for the same key.  Inserts are add-if-absent
    under the memo lock, so for each table this must always equal the
    number of distinct configurations simulated -- exposed so tests can
    assert the memo tables stay duplicate-free under concurrent replay. *)

val mutation_racy_memo : bool ref
(** Mutation tooth: when [true], memo inserts revert to the pre-fix
    unlocked check-then-insert, so concurrent replays can land duplicate
    bindings.  Exists so the simulation harness can prove its memo check
    catches the regression; never set it outside tests. *)
