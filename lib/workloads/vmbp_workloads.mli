(** Unified registry of the benchmark programs of both VMs, with the
    training-profile policies the paper uses for static selection
    (Section 7.1): Gforth trains on a dynamic profile of [brainless]; the
    JVM selects per benchmark from static profiles of the other six
    programs, taken after quickening. *)

type vm = Forth | Jvm

val vm_name : vm -> string

type session = {
  exec : Vmbp_core.Engine.exec;  (** semantics bound to a fresh state *)
  output : unit -> string;  (** captured program output *)
}

type loaded = {
  program : Vmbp_vm.Program.t;
      (** pristine, unquickened program; layout builders copy it *)
  fresh_session : unit -> session;
}

type t = {
  vm : vm;
  name : string;
  description : string;
  load : scale:int -> loaded;
}

val all : t list
val forth : t list
(** In the paper's Table VI order. *)

val jvm : t list
(** In the paper's Figure 9 order. *)

val find : vm:vm -> string -> t option

(** {2 Training runs}

    Each loaded workload gets one functional run
    ({!Vmbp_core.Engine.run_functional}, 500M steps of fuel) on a copy of
    its program, memoised by the loaded workload's physical identity and
    shared by the two functions below and by {!training_profile}.  The
    program they return is that shared copy: callers only read it. *)

val run_reference : loaded -> int * string option * string
(** The training run's (steps, trap, output). *)

val quickened_program : loaded -> Vmbp_vm.Program.t
(** The training run's program after it ran to completion, so all
    reachable quickable instructions are in their quick form.  Shared:
    callers only read it. *)

val training_profile :
  ?max_seq_len:int -> vm:vm -> target:string -> scale:int -> unit ->
  Vmbp_vm.Profile.t
(** The profile used to select static replicas/superinstructions when
    optimizing [target]: for Forth, a dynamic profile from a training run
    of [brainless] (halved scale); for the JVM, static profiles of every
    quickened benchmark except [target]. *)
