(** Registry of reproduction experiments, one per table and figure of the
    paper's evaluation (plus ablations called out in DESIGN.md).

    Every experiment declares its cells before anything runs and renders
    a plain-text report with the same rows/series the paper presents. *)

type t = {
  id : string;  (** e.g. "fig7" *)
  title : string;
  paper_claim : string;  (** the shape that should hold, from the paper *)
  default_scale : int;
  plan : scale:int -> Par_runner.cell list * (Par_runner.timed list -> string);
      (** the experiment's cells at a scale, and its render over their
          results in the same order *)
  run : scale:int -> string;
      (** [plan]'s cells run as one {!Par_runner.run_cells} batch, rendered *)
}

val all : t list
val find : string -> t option

val run_batch :
  ?ctx:Par_runner.ctx ->
  ?scale:int ->
  ?store:Vmbp_store.Store.t ->
  t list ->
  (t * string) list * Par_runner.timed list
(** Plan every experiment of the list, each at [scale] or else at its
    default scale, run all their cells as one {!Par_runner.run_cells}
    batch under [?ctx] over [?store], so each (workload, technique,
    scale) group is walked once however many experiments share it, and
    render each.
    Returns every experiment with its rendered table, in list order, and
    the batch's results in cell order.  The tables are byte-identical to
    each experiment's own [run]. *)

val static_mix :
  scale:int ->
  vm:Vmbp_workloads.vm ->
  workload:string ->
  cpu:Vmbp_machine.Cpu_model.t ->
  totals:int list ->
  (int * (int * float * int) list) list
(** For each total additional-instruction budget, a series over superinstr
    percentage: [(total, [(percent, cycles, mispredicts)])]
    (Figures 14, 15 and 16). *)
