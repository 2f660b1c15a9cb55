(** Running one workload under one interpreter configuration, with the
    paper's training-profile policy applied automatically. *)

type run = {
  workload : Vmbp_workloads.t;
  technique : Vmbp_core.Technique.t;
  cpu : Vmbp_machine.Cpu_model.t;
  result : Vmbp_core.Engine.result;
  output : string;
}

exception Run_failed of string
(** Raised when a run traps: reproduction results from a trapped run would
    be meaningless. *)

val engine_fuel : int
(** The executed-VM-instruction bound every run in this module uses.
    Exposed so tooling that re-runs a cell outside the runner (the
    [explain] attribution command) is cut off at exactly the same point. *)

val effective_profile :
  ?profile:Vmbp_vm.Profile.t ->
  scale:int ->
  technique:Vmbp_core.Technique.t ->
  Vmbp_workloads.t ->
  Vmbp_vm.Profile.t option
(** The paper's training policy: static-selection techniques get the
    workload's training profile unless the caller supplies one.  Exposed
    for the same reason as {!engine_fuel}. *)

val run :
  ?scale:int ->
  ?poll:(unit -> unit) ->
  ?predictor:Vmbp_machine.Predictor.kind ->
  ?profile:Vmbp_vm.Profile.t ->
  ?path_cap:int ->
  cpu:Vmbp_machine.Cpu_model.t ->
  technique:Vmbp_core.Technique.t ->
  Vmbp_workloads.t ->
  run
(** Default scale 1.  When the technique needs static selection and no
    [profile] is given, the paper's training policy for the workload's VM
    is used (see {!Vmbp_workloads.training_profile}).  [poll] is the
    engine's cooperative watchdog hook (see
    {!Vmbp_core.Engine.run_events}); a deadline exception raised from it
    escapes this function unchanged.

    [path_cap] turns on VM path replay (see {!Vmbp_core.Vm_path}).
    Without it the run executes the VM semantics live on a fresh session.
    With it, a run of a loaded workload whose control path is cached
    drives the engine from that path and reports the recorded program
    output, skipping the semantics; the result is field-for-field the live
    one.  Otherwise the run records the path while it executes live and
    caches it if the run returned normally without running out of fuel
    and the cache's total stays within [path_cap] bytes.  A workload
    whose path does not fit keeps running live.  The engine loop, layout
    and simulators run exactly as in a live run either way. *)

val run_result :
  ?scale:int ->
  ?poll:(unit -> unit) ->
  ?predictor:Vmbp_machine.Predictor.kind ->
  ?profile:Vmbp_vm.Profile.t ->
  ?path_cap:int ->
  cpu:Vmbp_machine.Cpu_model.t ->
  technique:Vmbp_core.Technique.t ->
  Vmbp_workloads.t ->
  (run, string) result
(** [run], with a trapped or otherwise failed run reported as [Error]
    instead of an exception. *)

val run_checked :
  ?scale:int ->
  ?poll:(unit -> unit) ->
  ?predictor:Vmbp_machine.Predictor.kind ->
  ?profile:Vmbp_vm.Profile.t ->
  ?fast_maker:(unit -> Audit.sim) ->
  cell:string ->
  cpu:Vmbp_machine.Cpu_model.t ->
  technique:Vmbp_core.Technique.t ->
  Vmbp_workloads.t ->
  (run, string) result
(** [run_result] under differential self-check: the cell executes once
    through {!Audit.dual_run}, comparing the production simulators with
    the reference models on every dispatch and fetch.  Agreement yields
    the exact [run_result] answer.  A divergence fails the cell, records
    a minimized repro artifact (via {!Audit.record_divergence}) and
    registers in the global audit statistics.  [cell] names the cell in
    divergence records; [fast_maker] substitutes the fast simulator
    (mutation tests). *)

val matrix :
  ?scale:int ->
  cpu:Vmbp_machine.Cpu_model.t ->
  techniques:Vmbp_core.Technique.t list ->
  Vmbp_workloads.t list ->
  (Vmbp_workloads.t * (Vmbp_core.Technique.t * (run, string) result) list) list
(** The full benchmark-times-variant grid used by the speedup figures.
    Failures are isolated per cell: one trapped workload/technique pair
    yields an [Error] cell and every sibling still runs.  See
    {!Par_runner.matrix} for the multicore version. *)

val speedup : baseline:run -> run -> float
(** Ratio of modelled cycles: how much faster than [baseline]. *)

(** {2 Record once, replay many}

    Cells that share (workload, technique, scale) differ only in CPU model
    and predictor override, neither of which can change the engine's event
    stream.  [record] executes the VM once and captures that stream (see
    {!Trace}); [replay] then reproduces the exact [run] any direct
    {!run_result} call would return for a given CPU/predictor, without
    re-executing VM semantics. *)

type trace
(** A recorded (workload, technique, scale) execution. *)

val record :
  ?scale:int ->
  ?poll:(unit -> unit) ->
  ?profile:Vmbp_vm.Profile.t ->
  ?cap_bytes:int ->
  ?path_cap:int ->
  technique:Vmbp_core.Technique.t ->
  Vmbp_workloads.t ->
  (trace, [ `Overflow | `Failed of string ]) result
(** One full engine execution with the same fuel, training-profile policy
    and VM path replay ([path_cap]) as {!run}.  [`Overflow] reports that
    the event storage would exceed [cap_bytes] (such a run keeps no VM
    path either); [`Failed] carries the exception of a run that did not
    even record.  In both cases callers must fall back to direct
    {!run_result} calls.  A run that merely traps records fine: its trace
    replays to the same [Error] cell a direct run would produce. *)

val replay :
  ?poll:(unit -> unit) ->
  ?predictor:Vmbp_machine.Predictor.kind ->
  cpu:Vmbp_machine.Cpu_model.t ->
  trace ->
  (run, string) result
(** Field-for-field equal to
    [run_result ?predictor ~cpu ~technique workload] for the trace's
    workload, technique and scale. *)

val replay_bank :
  ?poll:(unit -> unit) ->
  configs:
    (Vmbp_machine.Cpu_model.t * Vmbp_machine.Predictor.kind option) list ->
  trace ->
  int
(** Banked replay ({!Trace.replay_bank}): resolve each (cpu, predictor
    override) pair to its effective predictor kind and I-cache geometry --
    the same resolution {!replay} performs -- and simulate every distinct
    not-yet-memoized configuration in one traversal per event stream.
    Subsequent {!replay} / {!replay_memo} calls for these configurations
    are then served from the memo tables at cost-model price.  Returns the
    number of configurations freshly simulated.  [poll] follows
    {!Trace.replay_bank}'s contract: once on entry even when everything is
    memoized, then every 65536 tokens. *)

val replay_memo :
  ?predictor:Vmbp_machine.Predictor.kind ->
  cpu:Vmbp_machine.Cpu_model.t ->
  trace ->
  (run, string) result option
(** [replay], answered purely from the trace's per-configuration memo
    tables: [Some] exactly when this predictor kind and I-cache geometry
    have both been replayed on the trace before.  Works on a
    [release_trace]d trace, so an evicted trace still serves repeat
    configurations (see {!Trace.replay_memo}). *)

val clear_vm_paths : unit -> unit
(** Drop every cached VM path (and every [Unfit] mark), so the next run
    of each workload records afresh. *)

val trace_bytes : trace -> int
(** Storage footprint in bytes, for cache accounting. *)

val release_trace : trace -> unit
(** Recycle the trace's storage (see {!Trace.release}); the trace must not
    be replayed afterwards. *)
