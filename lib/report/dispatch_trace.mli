(** Dispatch-by-dispatch BTB traces of the paper's worked examples
    (Tables I-IV): for each executed dispatch, which BTB entry was
    consulted, what it predicted, and where execution actually went. *)

type row = {
  step : int;
  vm_instr : string;  (** the VM instruction whose dispatch executes *)
  btb_entry : string;  (** label of the dispatch branch, e.g. "br-A1" *)
  prediction : string;  (** predicted target label, or "-" when cold *)
  actual : string;
  correct : bool;
}

val trace :
  technique:Vmbp_core.Technique.t ->
  ?profile:Vmbp_vm.Profile.t ->
  program:Vmbp_vm.Program.t ->
  exec:Vmbp_core.Engine.exec ->
  skip:int ->
  take:int ->
  unit ->
  row list
(** Execute the program under the technique with an idealised BTB,
    recording dispatches [skip..skip+take), then stop.  The program runs
    through the one interpreter loop ({!Vmbp_core.Engine.run_events}), so
    the trace follows quickening, shadow windows and the gap
    pre-dispatches of not-yet-quickened instructions inside dynamic
    superinstructions; a gap dispatch entered straight from another
    dispatch is issued by its own instruction.  Labels derive from
    instruction names; distinct executable copies of the same instruction
    get numeric suffixes, making replication visible in the trace. *)

val render : row list -> string
