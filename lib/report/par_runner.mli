(** Parallel, fault-isolated experiment runner.

    The report matrix is a grid of (workload, technique, cpu) cells, each of
    which owns its private predictor, I-cache and interpreter session state,
    so cells are embarrassingly parallel.  This module runs a cell list on
    one pool loop at every job count -- the calling domain and up to
    [jobs - 1] spawned domains take groups of cells from one atomic cursor
    -- returns results in deterministic input order, and wraps every cell
    in a [result] so one trapped workload degrades to a reported failure
    instead of killing the whole report.  Every cell is a deterministic
    simulation capped at {!Runner.engine_fuel} VM steps, so it runs once:
    it can neither fail transiently nor hang.  A run's settings and its
    audit log come in as one {!ctx} value.

    With [jobs = 1] (the default) no domain is spawned and groups run in
    plan order; the simulated numbers do not depend on the job count, only
    wall-clock time does.

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
      (** [1] for a cell that ran or was served; [0] for a cell skipped by
          a graceful shutdown *)
  from_journal : bool;
      (** reconstructed from the store passed to {!run_cells}; no
          simulator ran for this cell.  The name predates the store. *)
  audited : bool;
      (** the cell was cross-checked against an oracle: reference-model
          lockstep under [--self-check], or a sampled fresh live run for
          walked and result-cache cells ([--audit-sample]) *)
}

(** {2 Run settings}

    {b Differential self-check and sampled auditing.}  With [self_check]
    set ([--self-check]), every cell runs live (walks and the result
    cache are bypassed) through {!Runner.run_checked}: the production
    predictor/I-cache and the naive reference models
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

    Every divergence goes into the run's [audit] log; callers inspect
    {!Audit.divergence_count} after the run (non-zero should map to a
    non-zero exit code). *)

type ctx = {
  jobs : int;
      (** Pool size: groups run [jobs] at a time.  1 is sequential. *)
  progress : bool;
      (** Emit a one-line heartbeat to stderr while {!run_cells} works:
          cells done / total, busy workers, elapsed time and a naive
          ETA, redrawn in place at most twice a second as cells finish,
          and erased when {!run_cells} returns or raises.  Never touches
          stdout, so report tables are byte-identical either way. *)
  self_check : bool;
      (** Route every cell through the reference-model lockstep run. *)
  audit_sample : float;
      (** Fraction (in [0, 1]) of walked and result-cache cells to
          cross-check against a fresh live run. *)
  audit : Audit.log;  (** where the run's divergences go *)
}

val default_ctx : unit -> ctx
(** Jobs 1, no progress, no self-check, audit sample 0.02, and a fresh
    audit log writing to ["."].  The CLI builds its ctx from its flags
    instead. *)

(** {2 Content-addressed result store and resume}

    The store ({!Vmbp_store.Store}) is the one crash-safe resume path and
    the report service's durable result table: one CRC-framed file,
    fsync'd per append, addressed by the tagless parameter-complete cell
    identity (the full-result cache's key) plus a configuration
    fingerprint.  Given a store, {!run_cells} serves matching cells from
    it before planning any work ([from_journal = true] -- no simulator
    ran) and appends every freshly computed success as it finishes, so
    an interrupted run re-run over the same store is byte-identical to an
    uninterrupted one, and a grid run warms the store the report service
    answers queries from.  The caller opens and closes the store.  The
    store's append path fires the [store-io] chaos point itself. *)

val store_lookup : Vmbp_store.Store.t -> cell -> timed option
(** Serve one cell straight from the store: [None] on a miss.  Used by
    the report service's hit path. *)

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

(** {2 Graceful shutdown} *)

val request_shutdown : unit -> unit
(** Stop taking groups: in-flight groups finish (and reach the store),
    queued cells are reported as interrupted [Error] cells with
    [attempts = 0].  Called from the harnesses' first-Ctrl-C handler. *)

val shutting_down : unit -> bool
val reset_shutdown : unit -> unit

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
    [--trace-cap-mb N] command-line flag; defaults to 256.  Process-global
    rather than a {!ctx} field because the benchmark's reference
    generator assigns it. *)

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

val plan : cell list -> int list list
(** The groups {!run_cells} runs: cell indices grouped by (workload,
    technique, scale) -- physical workload identity, structural
    technique equality -- with groups in first-occurrence order and
    ascending indices within each group.  Pure: it runs nothing. *)

val run_cells :
  ?ctx:ctx -> ?store:Vmbp_store.Store.t -> cell list -> timed list
(** Run every cell under [ctx] (default {!default_ctx}) and return the
    outcomes in the input order regardless of completion order.  Cells
    are grouped by {!plan}; groups are the unit of parallelism,
    [ctx.jobs] at a time, and within a group one walk of the workload's
    VM path serves every pending cell.  With [?store], cells found there
    are served from it and every fresh success is appended to it.

    A group that raises stops the run: no worker takes another group,
    every spawned domain is joined, and then the first exception -- at
    any job count, a worker death ({!Vmbp_sim.Faults.Worker_killed}) --
    is re-raised.  Completed groups are already in the store, so a re-run
    over it resumes. *)

val drain_log : unit -> timed list
(** All cells recorded since the previous drain, in chronological batch
    order (each batch in its input order); clears the log. *)

val json_summary :
  ?ctx:ctx -> ?store:Vmbp_store.Store.t -> timed list -> string
(** A machine-readable summary: schema [vmbp-cells/8], one record per cell
    with simulated cycles, mispredict rate, I-cache misses, production
    mode, [attempts]/[from_journal] (plus [audited] when the cell was
    cross-checked), wall-clock seconds and [serve_seconds] (or the error
    for failed cells), plus top-level [engine_runs]/[replays]/
    [from_journal]/[interrupted]/[injected_faults]/
    [bank_replays]/[banked_configs] counters (the last two count group
    walks), the
    report-service counters
    ([store_hits]/[store_misses]/[coalesced]/[shed]),
    the differential-checking block
    ([self_check]/[audit_sample]/[audited]/[divergences], read from
    [ctx], default {!default_ctx}), [?store]'s
    statistics when given, the direct/record/replay wall-clock
    split and the aggregate [serve_wall_seconds]. *)

val write_json_summary :
  ?ctx:ctx -> ?store:Vmbp_store.Store.t -> file:string -> timed list -> unit
(** Write {!json_summary} to [file]. *)
