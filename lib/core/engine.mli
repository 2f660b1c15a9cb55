(** The simulating interpreter engine.

    The engine executes a VM program for real -- the front end's semantics
    computes actual results -- while simultaneously driving the simulated
    hardware: every executed code range goes through the I-cache, every
    dispatch indirect branch through the branch predictor, and all event
    counts into {!Vmbp_machine.Metrics}.  Which dispatches exist, at which
    addresses, is entirely determined by the {!Code_layout}, so the same
    engine serves every technique.

    There is one simulating loop, {!run_events}: one iteration per
    executed VM instruction, every per-slot fact read from the layout's
    site records.  Every live run goes through it -- the self-check
    oracle, the audit's fresh run, [explain] and the runner's fallbacks.
    Every other run walks the workload's control path, recorded once by
    a layout-free {!run_functional}, against the layout's {e translation}
    ({!translate}), its per-slot facts decoded once into parallel arrays,
    with no per-step loop ({!Path_walk}). *)

type exec = Vmbp_vm.Program.t -> int -> Vmbp_vm.Control.t
(** [exec program pc] runs the semantics of the instruction in slot [pc].
    The function reads the (possibly quickened) opcode and operands from the
    program itself. *)

type result = {
  metrics : Vmbp_machine.Metrics.t;
  cycles : float;  (** pipeline cost model applied to the metrics *)
  seconds : float;
  steps : int;  (** executed VM instructions *)
  trapped : string option;  (** [Some msg] when the program trapped *)
}

type sink = {
  on_dispatch : branch:int -> target:int -> opcode:int -> vm_transfer:bool -> unit;
      (** one dispatch indirect branch: the branch at [branch] jumped to
          [target] while executing [opcode]; [vm_transfer] marks dispatches
          that follow a VM-level control transfer (their mispredictions are
          attributed to VM branches, Section 7.3) *)
  on_fetch : addr:int -> bytes:int -> opcode:int -> unit;
      (** one I-cache code fetch of [bytes] bytes starting at [addr], issued
          while executing [opcode] (for attributing misses to VM opcodes) *)
}
(** Where the engine's simulated-hardware events go.  The engine itself
    accounts only the deterministic event counts (executed VM/native
    instructions, dispatches, quickenings); everything whose outcome depends
    on predictor or I-cache state flows through the sink, so one interpreter
    loop serves both direct simulation ({!run}) and trace recording
    ({!Vmbp_report.Trace}). *)

val out_of_fuel : string
(** The trap message reported when a run exhausts its fuel. *)

val pc_out_of_range : string
(** The trap message reported when control leaves the program. *)

(** {1 Translations} *)

type translation = private {
  t_n : int;
  t_shadow : bool;  (** decoded from the shadow sites ({!translate_shadow}) *)
  t_entry : int array;
  t_fetch_addr : int array;
  t_fetch_bytes : int array;
  t_work : int array;
  t_opcode : int array;
  t_transfer : bool array;
  t_pre_addr : int array;  (** [-1] = no pre-dispatch *)
  t_pre_instrs : int array;
  t_fall_addr : int array;  (** [-1] = no fall-through dispatch *)
  t_fall_instrs : int array;
  t_taken_addr : int array;  (** [-1] = no taken dispatch *)
  t_taken_instrs : int array;
  t_fall_extra : int array;
  t_call_addr : int array;
  t_call_bytes : int array;  (** [0] = no call *)
  t_inv_lo : int array;
  t_inv_hi : int array;
      (** the straight-line run a quickening of the slot may repair *)
}
(** The decode-once form of one layout: every per-slot fact of its
    {!Code_layout.site}s (addresses, sizes, dispatch branches, instruction
    counts) plus the opcode and transfer classification, flattened into
    parallel arrays.  Its one reader is the path walk ({!Path_walk}),
    which hands the arrays to the simulators' range kernels; the
    interpreter loop ({!run_events}) reads the sites themselves.
    Mutable: a replayed quickening re-translates the enclosing
    straight-line block ({!retranslate}) so the translation always
    mirrors the layout it was built from.  A translation is therefore
    private to one walk.  Only this module builds or mutates one. *)

val translate : Code_layout.t -> translation
(** Build the translation of [layout] as it currently stands (one pass over
    the sites). *)

val translate_shadow : Code_layout.t -> translation
(** The same over the layout's non-replicated fallback sites (the ones a
    shadow window runs through). *)

val retranslate : translation -> Code_layout.t -> int -> unit
(** [retranslate tr layout slot], after {!Code_layout.quicken} of [slot],
    re-reads every slot the quickening may have repaired. *)

val translation_equal : translation -> translation -> bool
(** Structural equality of every decoded per-slot fact.  The test oracle
    for incremental re-translation: after a walk that quickened, the
    mutated translation must equal a from-scratch {!translate} of the
    mutated layout. *)

val run_events :
  ?fuel:int ->
  ?poll:(unit -> unit) ->
  ?translation:translation ->
  metrics:Vmbp_machine.Metrics.t ->
  layout:Code_layout.t ->
  exec:exec ->
  sink:sink ->
  unit ->
  int * string option
(** Execute the layout's program, streaming every dispatch and fetch event
    into [sink] and accumulating the deterministic counters into [metrics]
    ([mispredicts], [vm_branch_mispredicts], [icache_fetches],
    [icache_misses] and [code_bytes] are left untouched -- they belong to
    whoever consumes the events).  Returns [(steps, trapped)].  The event
    stream is a function of the layout and the program semantics only; it
    does not depend on the CPU model or predictor configuration, which is
    what makes one path walk over many configurations sound.

    [translation] is accepted for callers that still pass one (the
    benchmark's layer timings): the loop checks that its length matches
    the layout and reads nothing else from it.

    [poll] is called every few thousand executed VM instructions (and once
    before the first); it is the cooperative watchdog hook: a hung-cell
    deadline raises out of it, aborting the run, so supervisors regain
    control without preemption.  The hook must not touch the run's state. *)

val run :
  ?fuel:int ->
  ?poll:(unit -> unit) ->
  ?translation:translation ->
  config:Config.t ->
  layout:Code_layout.t ->
  exec:exec ->
  unit ->
  result
(** Execute the layout's program to completion through {!run_events},
    with the configuration's predictor and I-cache as the sink.

    [fuel] bounds the number of executed VM instructions (default
    unlimited); exhausting it stops the run with [trapped = Some out_of_fuel]
    so the metrics accumulated up to that point remain observable.
    [translation] is checked and otherwise ignored, as for {!run_events}. *)

val run_functional :
  ?fuel:int ->
  ?poll:(unit -> unit) ->
  ?exec_counts:int array ->
  program:Vmbp_vm.Program.t ->
  exec:exec ->
  unit ->
  int * string option
(** Run the program without any hardware simulation (and without a layout):
    returns the executed VM instruction count and the trap message, if any
    (fuel exhaustion reports [Some out_of_fuel]).
    Used by tests to establish reference behaviour, by training runs that
    only need quickening to reach a fixed point, and to record a
    workload's control path ({!Vm_path}) for every walk.  The program is
    mutated in place by quickening.  [poll] follows {!run_events}'
    contract: called every few thousand steps and once before the first,
    and may raise to abort the run. *)
