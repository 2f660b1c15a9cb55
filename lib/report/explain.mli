(** Mispredict and I-cache-miss attribution: the [explain] subcommand.

    Runs one cell once, under the differential self-check
    ({!Runner.run_checked}): the production simulators and the reference
    models ({!Vmbp_machine.Reference}) answer every event in lockstep,
    and the reference side also reports what each event did -- its set,
    its outcome, the entry a miss displaced.  From those reports every
    mispredict and cache miss goes into {!Vmbp_obs.Attribution} tables:
    which VM opcode suffered it, in which predictor/cache set, and -- for
    conflict events -- which opcode's access displaced the victim.  This
    is the tooling counterpart of the paper's Section 7.3 analysis, which
    attributes the residual mispredictions of replicated interpreters to
    VM branches by reading performance counters.

    {!run} fails on any divergence between the two sides, and unless the
    attributed totals equal the run's own mispredict and miss counters. *)

type t = {
  run : Runner.run;  (** the attributed run, counters included *)
  pred_kind : Vmbp_machine.Predictor.kind;  (** predictor actually simulated *)
  pred_att : Vmbp_obs.Attribution.t;  (** one entry per mispredict *)
  icache_att : Vmbp_obs.Attribution.t;  (** one entry per I-cache line miss *)
  pred_sets : int;  (** predictor sets (BTB) or table entries (two-level); 0 = no set structure *)
  icache_sets : int;  (** I-cache sets; 0 = infinite cache *)
  iset : Vmbp_vm.Instr_set.t;  (** for rendering opcode names *)
}

val run :
  ?scale:int ->
  audit:Audit.log ->
  cpu:Vmbp_machine.Cpu_model.t ->
  technique:Vmbp_core.Technique.t ->
  Vmbp_workloads.t ->
  (t, string) result
(** Same cell semantics as {!Runner.run} (same fuel, same training-profile
    policy, same counters); [Error] on a trapped run, a divergence between
    the production simulators and the reference models (recorded in
    [audit], whose directory receives its repro artifact, as under
    [--self-check]), or an attribution total that does not equal the
    run's own counter. *)

val render : ?top:int -> t -> string
(** Human-readable report: header with the run's counters, top-[top]
    (default 10) opcode tables for mispredicts and I-cache misses split
    into cold / wrong-target / conflict, top conflict pairs
    (victim opcode, evicting opcode, set), and per-set event and occupancy
    heatmaps when the simulated structure has sets. *)
