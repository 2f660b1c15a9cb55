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

    Every run executes the VM semantics live on a fresh session; walks
    are {!walk_group}'s.  [path_cap] asks the run to record the
    workload's VM path ({!Vmbp_core.Vm_path}) for later walks: it records
    when the workload has no path slot yet (claiming it, see
    {!await_path}) or when this domain holds the workload's recording
    claim, and keeps the path if the run returned normally without
    running out of fuel and the kept paths' total stays within
    [path_cap] bytes.  A workload whose path does not fit keeps running
    live. *)

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
  ?reference:Audit.sim ->
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
    (mutation tests) and [reference] the reference side of the one
    lockstep run ({!Audit.dual_run}; explain's attribution). *)

val speedup : baseline:run -> run -> float
(** Ratio of modelled cycles: how much faster than [baseline]. *)

(** {2 Group walks} *)

val walk_group :
  ?scale:int ->
  ?poll:(unit -> unit) ->
  technique:Vmbp_core.Technique.t ->
  configs:
    (Vmbp_machine.Cpu_model.t * Vmbp_machine.Predictor.kind option) list ->
  Vmbp_workloads.t ->
  ((run, string) result list * int) option
(** Every (cpu, predictor override) configuration of one (workload,
    technique, scale) group from a single walk of the workload's kept
    path: one layout, one translation, one pass that drives every
    distinct predictor and I-cache (deduplicated by
    {!Vmbp_machine.Predictor.descriptor} and
    {!Vmbp_machine.Icache.descriptor}) config-major.  [None] when the
    workload has no kept path (see {!run}'s [path_cap]).  Otherwise one
    result per configuration, in order, each field-for-field what {!run}
    would return (a trapped run is [Error] with {!run_result}'s message),
    and the number of distinct simulators the walk drove.  A
    configuration whose simulator constructor raises fails only its own
    cells, with that exception's message.  [poll] follows
    {!Vmbp_core.Path_walk.walk}'s contract. *)

val await_path :
  ?scale:int -> record:(unit -> unit) -> Vmbp_workloads.t -> unit
(** Settle the workload's path slot before a group walks it.  While
    another domain's live run records the path, wait until that recording
    ends.  When the workload has no slot, claim its recording for this
    domain in the same locked step as the lookup, and call [record ()],
    which should make one {!run} with [path_cap] (it records under the
    claim).  The claim ends when [record] returns or raises; a recording
    that kept no path clears the slot and wakes the waiters, and the
    first of them claims the next recording.  Returns at once when the
    path is kept or marked unfit.  Only runs on other domains ever make
    this wait. *)

val clear_vm_paths : unit -> unit
(** Drop every kept VM path (and every [Unfit] mark), so the next run of
    each workload records afresh. *)
