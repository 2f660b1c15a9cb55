(** Parallel, fault-isolated experiment runner.

    The report matrix is a grid of (workload, technique, cpu) cells, each of
    which owns its private predictor, I-cache and interpreter session state,
    so cells are embarrassingly parallel.  This module runs a cell list on a
    fixed-size pool of domains fed from a shared work queue, returns results
    in deterministic input order, and wraps every cell in a [result] so one
    trapped workload degrades to a reported failure instead of killing the
    whole report.

    With [jobs = 1] (the default) no domain is spawned and cells run
    sequentially in submission order, which is bit-for-bit the reference
    behaviour for the pool: the simulated numbers do not depend on the job
    count, only wall-clock time does.

    Every cell run through this module is also appended to a session log
    ({!drain_log}) carrying per-cell wall-clock timings, which the bench and
    CLI harnesses dump as a machine-readable JSON summary ([--json FILE]) so
    the performance trajectory can be tracked across changes.

    {b Record once, replay many.}  Cells that share (workload, technique,
    scale) run the exact same VM execution -- only the modelled hardware
    differs -- so the planner groups them, records the engine's event stream
    once per group ({!Runner.record}), and replays every cell of the group
    from that trace.  The replay itself is banked ({!Runner.replay_bank}):
    the group's distinct (predictor, I-cache) configurations are collected
    up front and simulated together in one traversal per event stream, so
    per-group replay cost is O(events), not O(cells x events); the
    per-cell results are then fanned back out of the trace's memo tables.
    Recorded traces are kept in a
    process-wide LRU cache bounded by {!trace_cap_mb}.  A group with at
    most one cell to run is not recorded but simulated directly, and an
    exact revisit of a cell (same configuration, e.g. a counter figure
    re-running a speedup figure's cell) is served from the full-result
    cache without any simulation.  A later experiment that revisits a group
    under another CPU (the common shape: one figure per CPU, one cell per
    group) therefore re-runs the engine for it; that run skips the VM
    semantics by replaying the workload's recorded control path
    ({!Runner.run}'s [path_cap], on exactly when the result cache is).
    Eviction recycles a trace's stream storage but
    keeps a memo-only summary that still answers every simulator
    configuration the trace ever served ({!Runner.replay_memo}); only a new
    configuration on an evicted group re-records.  Simulated numbers are
    identical to direct runs by construction; any recording problem (budget
    exceeded, trap during load) falls back to per-cell direct simulation. *)

type cell = {
  tag : string;  (** experiment-level label carried into the JSON log *)
  workload : Vmbp_workloads.t;
  technique : Vmbp_core.Technique.t;
  cpu : Vmbp_machine.Cpu_model.t;
  scale : int;
  predictor : Vmbp_machine.Predictor.kind option;
}

(** How a cell's numbers were produced: [Direct] = full engine execution for
    this cell alone; [Record] = full engine execution whose trace also
    served its group; [Replay] = no VM execution, simulators driven from a
    recorded trace. *)
type mode = Direct | Record | Replay

val mode_name : mode -> string

type timed = {
  cell : cell;
  outcome : (Runner.run, string) result;
  wall_seconds : float;
      (** wall-clock spent producing this cell; a [Record] cell carries its
          group's one engine execution, so summing over cells accounts all
          work *)
  serve_seconds : float;
      (** the part of this cell's cost that was pure serving -- journal
          lookup and reconstruction, or memo-table replay -- with no
          simulation at all; [0] for cells that ran a simulator *)
  mode : mode;
  attempts : int;
      (** cell attempts consumed, [> 1] after transient-failure retries;
          [0] for a cell skipped by a graceful shutdown or abandoned after
          repeated worker deaths *)
  timed_out : bool;  (** the final attempt hit the [--cell-timeout] deadline *)
  from_journal : bool;
      (** served from the resume journal; no simulator ran for this cell *)
  audited : bool;
      (** the cell was cross-checked against an oracle: reference-model
          lockstep under [--self-check], or a sampled fresh direct run
          for replayed cells ([--audit-sample]) *)
}

val default_jobs : int ref
(** Pool size used when [?jobs] is omitted; set once from the [--jobs N]
    command-line flag.  Defaults to 1 (sequential). *)

val progress : bool ref
(** Emit a one-line heartbeat to stderr while {!run_cells} works: cells
    done / total, busy workers, elapsed time and a naive ETA, redrawn in
    place at most twice a second from the engine poll hook.  Never touches
    stdout, so report tables are byte-identical either way.  Default
    [false]; the CLI turns it on when stderr is a TTY ([--progress] /
    [--no-progress] override). *)

(** {2 Differential self-check and sampled auditing}

    With [self_check] set ([--self-check]), every cell runs directly
    (the trace fast path is bypassed) through {!Runner.run_checked}: the
    production predictor/I-cache and the naive reference models
    ({!Vmbp_machine.Reference}) observe the same event stream, and the
    first disagreement fails the cell with a structured divergence
    record plus a minimized repro artifact (see {!Audit}).

    Independently, [audit_sample] cross-checks a deterministic fraction
    of the cells served by the record/replay and memo fast paths against
    a fresh direct {!Runner.run_result}; any field-level difference is
    recorded as a divergence and fails the cell.  Sampling is keyed on
    the cell key, so the audited subset is stable across runs, machines
    and job counts.

    Drivers should {!Audit.reset_stats} before a run and inspect
    {!Audit.divergence_count} after it (non-zero should map to a
    non-zero exit code). *)

val self_check : bool ref
(** Route every cell through the reference-model lockstep run.
    Default [false]; set from [--self-check]. *)

val audit_sample : float ref
(** Fraction (in [0, 1]) of replay/memo-served cells to cross-check
    against a fresh direct run.  Default [0.02]; set from
    [--audit-sample P]. *)

val cell_timeout : float ref
(** Per-cell-attempt watchdog deadline in seconds, enforced cooperatively
    through the engine/replay poll hook; [<= 0] (the default) disables it.
    A timed-out cell reports [Error] with [timed_out = true] and is not
    retried.  Set from [--cell-timeout SEC]. *)

val cell_retries : int ref
(** Extra attempts granted to a cell whose attempt failed transiently (an
    unexpected exception -- not a deterministic [Runner.Run_failed] trap,
    not a timeout).  Defaults to 1; set from [--cell-retries N]. *)

val retry_backoff_s : float ref
(** Base delay between retry attempts; the actual delay grows
    exponentially per attempt and is jittered from the seeded chaos
    stream.  Exposed mainly so tests can keep retries fast. *)

(** {2 Crash-safe journal and resume}

    With a journal installed ({!set_journal}), every completed cell is
    appended -- fsync'd -- to a JSONL file as it finishes, keyed by a
    stable cell key plus a configuration fingerprint (scale, CPU profile,
    predictor override, trace setting; see {!Journal}).  Opening the
    journal with [resume:true] additionally serves matching cells straight
    from the file ([from_journal = true], no simulation), which makes an
    interrupted-then-resumed report byte-identical to an uninterrupted
    one. *)

val set_journal : file:string -> resume:bool -> unit
(** Install (or replace) the process-wide journal. *)

val clear_journal : unit -> unit
(** Close and remove the journal; subsequent runs neither read nor write
    one. *)

val journal_stats : unit -> Journal.stats option

(** {2 Content-addressed result store}

    Where the journal is a per-run crash log, the store
    ({!Vmbp_store.Store}) is a durable cross-run result service: sharded,
    CRC-framed, addressed by the tagless parameter-complete cell identity
    (the full-result cache's key) plus the same configuration
    fingerprint.  With a store installed, {!run_cells} serves matching
    cells from it before planning any work ([from_journal = true] -- no
    simulator ran) and appends every freshly computed success as it
    finishes, so a grid run warms the store the report service answers
    queries from.  The [store-io] chaos point is wired into the store's
    append path. *)

val set_store : ?shards:int -> string -> unit
(** Install (or replace) the process-wide store, opening [dir]. *)

val clear_store : unit -> unit
(** Close and remove the store. *)

val store_stats : unit -> Vmbp_store.Store.stats option

val store_compact : unit -> unit
(** Run a compaction pass on the installed store, if any. *)

val store_lookup : cell -> timed option
(** Serve one cell straight from the installed store: [None] on a miss or
    with no store installed.  Used by the report service's hit path. *)

val store_key : cell -> string
(** The store key: tagless and parameter-complete, so every consumer that
    asks for the same configuration shares one record. *)

val cell_key : cell -> string
(** The journal key: tag, workload, parameter-complete technique
    descriptor, CPU name, scale and predictor override. *)

val config_fingerprint : cell -> string
(** Digest of everything else that could change the cell's numbers between
    runs; a journal entry is served only when key and fingerprint both
    match. *)

(** {2 Graceful shutdown and worker supervision} *)

val request_shutdown : unit -> unit
(** Stop dequeuing work: in-flight groups finish (and are journaled),
    queued cells are reported as interrupted [Error] cells with
    [attempts = 0].  Called from the harnesses' first-Ctrl-C handler. *)

val shutting_down : unit -> bool
val reset_shutdown : unit -> unit

val worker_respawns : unit -> int
(** Worker domains respawned after a death ({!Faults.Worker_killed})
    since process start.  In the sequential ([jobs = 1]) path there is no
    pool to respawn into and the death escapes [run_cells] instead -- the
    fault harness's stand-in for a killed process. *)

val bank_replays : unit -> int
(** Banked group traversals ({!Runner.replay_bank}) that simulated at
    least one fresh configuration since process start.  A group whose
    configurations were all already memoized issues no traversal and is
    not counted. *)

val banked_configs : unit -> int
(** Distinct simulator configurations freshly simulated by those banked
    traversals since process start. *)

val trace_cap_mb : int ref
(** Budget, in megabytes, for recorded traces retained in the process-wide
    LRU cache; also caps any single recording (an over-budget group falls
    back to direct runs).  [<= 0] disables record/replay entirely.  Set from
    the [--trace-cap-mb N] command-line flag; defaults to 256. *)

val clear_trace_cache : unit -> unit
(** Drop every retained trace, including memo-only summaries (used by tests
    and memory-sensitive harnesses). *)

val trace_cache_bytes : unit -> int
(** Current retained stream footprint in bytes (summaries are not
    counted -- their streams are already recycled). *)

val clear_result_cache : unit -> unit
(** Drop every cached cell result.  Finished cells are retained for the
    process lifetime keyed by their full configuration (workload identity
    is physical), so an experiment batch that revisits a cell verbatim is
    served without any simulation; cells served this way are
    [Replay]-mode and subject to sampled auditing like trace replays.
    Disabled under [--self-check] and with [--trace-cap-mb 0]. *)

val cell :
  ?tag:string ->
  ?scale:int ->
  ?predictor:Vmbp_machine.Predictor.kind ->
  cpu:Vmbp_machine.Cpu_model.t ->
  technique:Vmbp_core.Technique.t ->
  Vmbp_workloads.t ->
  cell

val cell_name : cell -> string
(** ["vm/workload/technique/cpu[@scale]"], for logs and error reports. *)

val run_cells : ?jobs:int -> cell list -> timed list
(** Run every cell and return the outcomes in the input order regardless of
    completion order.  Cells are grouped by (workload, technique, scale);
    groups are the unit of parallelism, [?jobs] at a time (default
    {!default_jobs}), and within a group one recorded execution feeds every
    cell's replay. *)

val matrix :
  ?scale:int ->
  ?jobs:int ->
  ?tag:string ->
  cpu:Vmbp_machine.Cpu_model.t ->
  techniques:Vmbp_core.Technique.t list ->
  Vmbp_workloads.t list ->
  (Vmbp_workloads.t
  * (Vmbp_core.Technique.t * (Runner.run, string) result) list)
  list
(** The benchmark-times-variant grid of {!Runner.matrix}, run through the
    pool.  Cell order inside the grid (workload-major, then technique) and
    the returned structure are deterministic. *)

val drain_log : unit -> timed list
(** All cells recorded since the previous drain, in chronological batch
    order (each batch in its input order); clears the log. *)

val json_summary : ?jobs:int -> timed list -> string
(** A machine-readable summary: schema [vmbp-cells/7], one record per cell
    with simulated cycles, mispredict rate, I-cache misses, production
    mode, [attempts]/[timed_out]/[from_journal] (plus [audited] when the
    cell was cross-checked), wall-clock seconds and [serve_seconds] (or
    the error for failed cells), plus top-level [engine_runs]/[replays]/
    [from_journal]/[retries]/[timeouts]/[interrupted]/[injected_faults]/
    [worker_respawns]/[bank_replays]/[banked_configs] counters, the
    report-service counters
    ([store_hits]/[store_misses]/[coalesced]/[shed]/[degraded_seconds]),
    the differential-checking block
    ([self_check]/[audit_sample]/[audited]/[divergences]), journal and
    store statistics when installed, the direct/record/replay wall-clock
    split and the aggregate [serve_wall_seconds]. *)

val write_json_summary : ?jobs:int -> file:string -> timed list -> unit
(** Write {!json_summary} to [file]. *)
