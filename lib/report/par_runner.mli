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
    ({!drain_log}) carrying per-cell wall-clock timings, which the CLI
    dumps as a machine-readable JSON summary ([--json FILE]) so the
    performance trajectory can be tracked across changes.

    {b Record once, walk many.}  Cells that share (workload, technique,
    scale) run the exact same VM execution -- only the modelled hardware
    differs -- and every technique of a workload runs the same VM control
    path.  The first group of each workload records that path
    ({!Vmbp_core.Vm_path}) with one simulator-free functional run, and
    the planner runs each group's pending cells, that first group's
    included, as one walk of the path against the group's translation
    ({!Runner.walk_group}, {!Vmbp_core.Path_walk}): no VM semantics, no
    per-step loop, and every distinct (predictor, I-cache) configuration
    of the group driven config-major through the simulators' range
    kernels in the same pass.  A group that finds the recording in
    flight on another domain waits for it, so each workload records once
    at any [jobs].  A cell an earlier batch already ran (same
    configuration, e.g. a counter figure run after the speedup figure
    that shares its cell) is served from the full-result cache without
    any simulation; within one batch each group is visited once, so
    there is nothing to revisit.  Kept paths are
    bounded by {!trace_cap_mb}; a workload whose path does not fit runs
    every cell live.  Simulated numbers are identical to live runs by
    construction; any problem in a walk degrades its group to per-cell
    live runs, which are otherwise only the oracles' and fallbacks'. *)

type cell = {
  tag : string;  (** experiment-level label carried into the JSON log *)
  workload : Vmbp_workloads.t;
  technique : Vmbp_core.Technique.t;
  cpu : Vmbp_machine.Cpu_model.t;
  scale : int;
  predictor : Vmbp_machine.Predictor.kind option;
}

(** How a cell's numbers were produced: [Direct] = an engine run for this
    cell alone (a live run, or a walk of the workload's path when it is
    the group's only pending cell); [Record] = the first cell of a group
    walk, which carries the walk's time; [Replay] = another cell of a
    group walk, or a cell served from the full-result cache. *)
type mode = Direct | Record | Replay

val mode_name : mode -> string

type timed = {
  cell : cell;
  outcome : (Runner.run, string) result;
  wall_seconds : float;
      (** wall-clock spent producing this cell; a [Record] cell carries its
          group's one walk, so summing over cells accounts all work *)
  serve_seconds : float;
      (** the part of this cell's cost that was pure serving -- store
          lookup and reconstruction, or a result-cache hit -- with no
          simulation at all; [0] for cells that ran a simulator *)
  mode : mode;
  attempts : int;
      (** cell attempts consumed, [> 1] after transient-failure retries;
          [0] for a cell skipped by a graceful shutdown or abandoned after
          repeated worker deaths *)
  timed_out : bool;  (** the final attempt hit the [--cell-timeout] deadline *)
  from_journal : bool;
      (** reconstructed from the store ({!set_store}); no simulator ran
          for this cell.  The name predates the store. *)
  audited : bool;
      (** the cell was cross-checked against an oracle: reference-model
          lockstep under [--self-check], or a sampled fresh live run for
          walked and result-cache cells ([--audit-sample]) *)
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

    With [self_check] set ([--self-check]), every cell runs live (walks
    and the result cache are bypassed) through {!Runner.run_checked}: the
    production predictor/I-cache and the naive reference models
    ({!Vmbp_machine.Reference}) observe the same event stream, and the
    first disagreement fails the cell with a structured divergence
    record plus a minimized repro artifact (see {!Audit}).

    Independently, [audit_sample] cross-checks a deterministic fraction
    of the cells whose numbers came from a path walk or the result cache
    -- every cell not produced by a live run, whatever its mode --
    against a fresh live {!Runner.run_result}; any field-level difference
    is recorded as a divergence and fails the cell.  Live cells are
    exempt.  Sampling is keyed on the cell key, so the audited subset is
    stable across runs, machines and job counts.

    Drivers should {!Audit.reset_stats} before a run and inspect
    {!Audit.divergence_count} after it (non-zero should map to a
    non-zero exit code). *)

val self_check : bool ref
(** Route every cell through the reference-model lockstep run.
    Default [false]; set from [--self-check]. *)

val audit_sample : float ref
(** Fraction (in [0, 1]) of walked and result-cache cells to cross-check
    against a fresh live run.  Default [0.02]; set from
    [--audit-sample P]. *)

val cell_timeout : float ref
(** Per-cell-attempt watchdog deadline in seconds, enforced cooperatively
    through the engine and path-walk poll hooks (a group walk runs under
    one group-level deadline and degrades to per-cell live runs when it
    passes); [<= 0] (the default) disables it.
    A timed-out cell reports [Error] with [timed_out = true] and is not
    retried.  Set from [--cell-timeout SEC]. *)

val cell_retries : int ref
(** Extra attempts granted to a cell whose attempt failed transiently (an
    unexpected exception -- not a deterministic [Runner.Run_failed] trap,
    not a timeout).  Defaults to 1; set from [--cell-retries N].  The
    [n]th retry first waits 20 ms times [2^(n-1)], jittered from the
    seeded chaos stream. *)

(** {2 Content-addressed result store and resume}

    The store ({!Vmbp_store.Store}) is the one crash-safe resume path and
    the report service's durable result table: sharded, CRC-framed,
    fsync'd per append, addressed by the tagless parameter-complete cell
    identity (the full-result cache's key) plus a configuration
    fingerprint.  With a store installed, {!run_cells} serves matching
    cells from it before planning any work ([from_journal = true] -- no
    simulator ran) and appends every freshly computed success as it
    finishes, so an interrupted run re-run over the same store is
    byte-identical to an uninterrupted one, and a grid run warms the
    store the report service answers queries from.  The [store-io] chaos
    point is wired into the store's append path. *)

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
(** The tagged cell key: tag, workload, parameter-complete technique
    descriptor, CPU name, scale and predictor override.  Names cells in
    divergence records and keys the audit sampler. *)

val config_fingerprint : cell -> string
(** Digest of everything else that could change the cell's numbers between
    runs; a store record is served only when key and fingerprint both
    match. *)

(** {2 Graceful shutdown and worker supervision} *)

val request_shutdown : unit -> unit
(** Stop dequeuing work: in-flight groups finish (and reach the store),
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
(** Group walks ({!Runner.walk_group}) that served two or more cells
    since the last {!Vmbp_obs.Registry.reset} (the registry counter
    [trace.bank_replays]).  A group's only pending cell is walked too,
    but not counted. *)

val banked_configs : unit -> int
(** Distinct simulators (predictors plus I-caches) driven by those group
    walks since the last {!Vmbp_obs.Registry.reset} (the registry
    counter [trace.banked_configs]). *)

val trace_cap_mb : int ref
(** Budget, in megabytes, for the VM paths kept for walks (see
    {!Runner.walk_group}'s [cap_bytes]); a path that would exceed it is
    not kept and its workload runs live.  [<= 0] disables path walks and the
    full-result cache entirely: every cell runs live.  Set from the
    [--trace-cap-mb N] command-line flag; defaults to 256. *)

val clear_trace_cache : unit -> unit
(** Drop every kept VM path, so the next walk of each workload records
    afresh (used by tests and harnesses that want cold caches). *)

val clear_result_cache : unit -> unit
(** Drop every cached cell result.  Finished cells are retained for the
    process lifetime keyed by their full configuration (workload identity
    is physical), so an experiment batch that revisits a cell verbatim is
    served without any simulation; cells served this way are
    [Replay]-mode and subject to sampled auditing like walks.  Also drops
    the kept VM paths.  Disabled under [--self-check] and with
    [--trace-cap-mb 0]. *)

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
    {!default_jobs}), and within a group one walk of the workload's VM
    path serves every pending cell. *)

val drain_log : unit -> timed list
(** All cells recorded since the previous drain, in chronological batch
    order (each batch in its input order); clears the log. *)

val json_summary : ?jobs:int -> timed list -> string
(** A machine-readable summary: schema [vmbp-cells/8], one record per cell
    with simulated cycles, mispredict rate, I-cache misses, production
    mode, [attempts]/[timed_out]/[from_journal] (plus [audited] when the
    cell was cross-checked), wall-clock seconds and [serve_seconds] (or
    the error for failed cells), plus top-level [engine_runs]/[replays]/
    [from_journal]/[retries]/[timeouts]/[interrupted]/[injected_faults]/
    [worker_respawns]/[bank_replays]/[banked_configs] counters (the last
    two count group walks), the
    report-service counters
    ([store_hits]/[store_misses]/[coalesced]/[shed]/[degraded_seconds]),
    the differential-checking block
    ([self_check]/[audit_sample]/[audited]/[divergences]), store
    statistics when installed, the direct/record/replay wall-clock
    split and the aggregate [serve_wall_seconds]. *)

val write_json_summary : ?jobs:int -> file:string -> timed list -> unit
(** Write {!json_summary} to [file]. *)
