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
    Exposed so code that runs a cell outside the runner (the benchmark's
    layer timings) is cut off at exactly the same point. *)

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
  ?predictor:Vmbp_machine.Predictor.kind ->
  ?profile:Vmbp_vm.Profile.t ->
  cpu:Vmbp_machine.Cpu_model.t ->
  technique:Vmbp_core.Technique.t ->
  Vmbp_workloads.t ->
  run
(** One live run: the VM semantics execute on a fresh session through
    {!Vmbp_core.Engine.run}, the reference every walk ({!walk_group}) is
    checked against.  Default scale 1.  When the technique needs static
    selection and no [profile] is given, the paper's training policy for
    the workload's VM is used (see {!Vmbp_workloads.training_profile}). *)

val run_result :
  ?scale:int ->
  ?predictor:Vmbp_machine.Predictor.kind ->
  ?profile:Vmbp_vm.Profile.t ->
  cpu:Vmbp_machine.Cpu_model.t ->
  technique:Vmbp_core.Technique.t ->
  Vmbp_workloads.t ->
  (run, string) result
(** [run], with a trapped or otherwise failed run reported as [Error]
    instead of an exception. *)

val run_checked :
  ?scale:int ->
  ?predictor:Vmbp_machine.Predictor.kind ->
  ?profile:Vmbp_vm.Profile.t ->
  ?fast_maker:(unit -> Audit.sim) ->
  ?reference:Audit.sim ->
  audit:Audit.log ->
  cell:string ->
  cpu:Vmbp_machine.Cpu_model.t ->
  technique:Vmbp_core.Technique.t ->
  Vmbp_workloads.t ->
  (run, string) result
(** [run_result] under differential self-check: the cell executes once
    through {!Audit.dual_run}, comparing the production simulators with
    the reference models on every dispatch and fetch.  Agreement yields
    the exact [run_result] answer.  A divergence fails the cell and is
    recorded in [audit], with a minimized repro artifact written to the
    log's directory ({!Audit.record_divergence}).  [cell] names the cell in
    divergence records; [fast_maker] substitutes the fast simulator
    (mutation tests) and [reference] the reference side of the one
    lockstep run ({!Audit.dual_run}; explain's attribution). *)

val speedup : baseline:run -> run -> float
(** Ratio of modelled cycles: how much faster than [baseline]. *)

(** {2 Group walks} *)

val walk_group :
  ?scale:int ->
  cap_bytes:int ->
  technique:Vmbp_core.Technique.t ->
  configs:
    (Vmbp_machine.Cpu_model.t * Vmbp_machine.Predictor.kind option) list ->
  Vmbp_workloads.t ->
  ((run, string) result list * int) option
(** Every (cpu, predictor override) configuration of one (workload,
    technique, scale) group from a single walk of the workload's VM path
    ({!Vmbp_core.Vm_path}): one layout, one translation, one pass that
    drives every distinct predictor and I-cache (deduplicated by
    {!Vmbp_machine.Predictor.descriptor} and
    {!Vmbp_machine.Icache.descriptor}) config-major.  One result per
    configuration, in order, each field-for-field what {!run} would
    return (a trapped run is [Error] with {!run_result}'s message), and
    the number of distinct simulators the walk drove.  A configuration
    whose simulator constructor raises fails only its own cells, with
    that exception's message.

    The first walk of a loaded workload records its path with one
    {!Vmbp_core.Engine.run_functional} run over a copy of the program,
    in a [record] span, holding only that workload's lock: a walk of the
    same workload on another domain waits for the recording and then
    uses it.  The path is kept if the kept paths' total stays within
    [cap_bytes].  [None] when the workload is unfit: its path did not
    fit, or its recording ran out of fuel; it runs live from then on.  A
    recording that an exception aborts keeps nothing, so the next walk of
    the workload records again. *)

val clear_vm_paths : unit -> unit
(** Drop every kept VM path (and every [Unfit] mark), so the next walk of
    each workload records afresh. *)
