(** Path-driven simulation: a recorded VM control path ({!Vm_path})
    walked against a translation's per-slot columns, with no per-step
    loop and no VM semantics.

    A workload's control path fixes which slots run in which order, and a
    translation fixes every event a slot emits, so a run's dispatch and
    fetch streams and its deterministic counters are a function of the
    two.  The walk cuts the path into {e ranges} -- slots [lo .. hi] that
    fall through to each other, entered by one stored dispatch (see
    {!Vmbp_machine.Slot_ranges}) -- and collects them in blocks of at most
    1024 ranges and 65536 steps.  Each full block runs through the range
    kernels of every configuration in turn ([Predictor.run_ranges],
    [Icache.run_ranges]), config-major, so one walk drives any number of
    distinct simulators.  VM, native-instruction and dispatch counts come
    from per-slot prefix sums, once per range.  The I-caches read line
    columns ({!Vmbp_machine.Icache.lines}), built once per walk for each
    distinct line size among them and shared by every I-cache of that
    size (and by the main and shadow column sets when they are one).

    The walk reproduces a live {!Engine.run_events} run of the same
    layout exactly:
    - a recorded [Quicken] is applied at its step: that step's events and
      its outgoing dispatch use the pre-quickening columns; the block is
      run first, then the layout is quickened with a fresh copy of the
      operands, the slot's straight-line run is re-translated and the
      prefix sums and line columns are rebuilt from there;
    - shadow windows walk a second column set, translated from the
      layout's shadow sites, and split ranges at the window's end;
    - ranges are clipped at the fuel limit, so a walk stops
      [Engine.out_of_fuel] at the same step, with the same metrics, as a
      live run; control leaving the program stops it with the engine's
      "pc out of range" trap.

    [poll] runs once before any work and then after every block. *)

type counts = {
  base : Vmbp_machine.Metrics.t;
      (** the deterministic counters (VM and native instructions,
          dispatches, indirect branches, quickenings); simulator fields 0 *)
  steps : int;
  trapped : string option;
  code_bytes : int;  (** the layout's run-time code bytes after the walk *)
  mispredicts : int array;  (** per predictor, in the order given *)
  vm_branch_mispredicts : int array;
  icache_fetches : int array;  (** per I-cache, in the order given *)
  icache_misses : int array;
}

val walk :
  ?fuel:int ->
  ?poll:(unit -> unit) ->
  ?translation:Engine.translation ->
  path:Vm_path.t ->
  layout:Code_layout.t ->
  predictors:Vmbp_machine.Predictor.t array ->
  icaches:Vmbp_machine.Icache.t array ->
  unit ->
  counts
(** Walk [path] over [layout], driving every predictor over the dispatch
    stream and every I-cache over the fetch stream.  [translation] must
    have been built from [layout] as it stands (default: translated on
    entry); like a live run, the walk quickens the layout and
    re-translates it, so neither may be reused for another run.  Raises
    [Invalid_argument] when the path was recorded over a program of
    another length. *)

val result :
  counts ->
  cpu:Vmbp_machine.Cpu_model.t ->
  predictor:int ->
  icache:int ->
  Engine.result
(** The {!Engine.result} of the configuration made of predictor number
    [predictor] and I-cache number [icache] of the walk, priced on
    [cpu]'s cost model: field for field what {!Engine.run} returns for
    that configuration. *)
