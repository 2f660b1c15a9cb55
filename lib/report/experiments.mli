(** Registry of reproduction experiments, one per table and figure of the
    paper's evaluation (plus ablations called out in DESIGN.md).

    Every experiment renders a plain-text report with the same rows/series
    the paper presents; structured accessors used by the test suite live in
    the individual compute functions. *)

type t = {
  id : string;  (** e.g. "fig7" *)
  title : string;
  paper_claim : string;  (** the shape that should hold, from the paper *)
  default_scale : int;
  run : scale:int -> string;
}

val all : t list
val find : string -> t option

(* Structured computations behind the speedup, counter and static-mix
   figures. *)

val speedups :
  scale:int ->
  vm:Vmbp_workloads.vm ->
  cpu:Vmbp_machine.Cpu_model.t ->
  (string * (string * float option) list) list
(** Per workload, the speedup of every paper variant over [plain]
    (Figures 7, 8 and 9).  A failed cell (or a failed baseline) yields
    [None] and the sibling cells still report. *)

val counter_profile :
  scale:int ->
  vm:Vmbp_workloads.vm ->
  workload:string ->
  cpu:Vmbp_machine.Cpu_model.t ->
  (string * float list) list * string list
(** Per variant, the seven metrics of Figures 10-13 normalised to [plain]
    (code bytes raw, in KB); and the metric labels. *)

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
