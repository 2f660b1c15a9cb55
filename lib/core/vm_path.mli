(** Record-once, replay-many VM control paths.

    Dispatch techniques change which native code runs and which dispatch
    branches fire, never which VM instructions execute: the sequence of
    {!Vmbp_vm.Control.t} outcomes a workload's semantics returns, step by
    step, is the same under every technique, CPU and predictor (the
    paper's Figures 10-13 show identical VM instruction counts for plain,
    static and dynamic replication).  This module records that {e control
    path} from one live run; every later run of the workload walks it
    ({!Path_walk}) and skips the VM semantics.  {!replayer} replays it as
    an {!Engine.exec} instead, the step-by-step oracle the walk is tested
    against.

    {b Encoding.}  Only non-[Next] outcomes are stored, one packed int
    each: the count of [Next]s before it and a code.  A code below the
    program length is an in-range [Jump] (replayed from one interned
    [Jump] value per target, so replay allocates nothing per step);
    higher codes index a small side table holding [Halt], [Trap],
    [Quicken] and out-of-range jumps.  A final end marker carries the
    trailing [Next]s. *)

type t
(** A recorded control path: immutable, shareable across domains. *)

type recorder
(** An in-progress recording. *)

val recorder :
  ?cap_bytes:int -> slots:int -> Engine.exec -> recorder * Engine.exec
(** [recorder ~slots live] returns a recording and the [exec] to run in
    place of [live]: it calls [live] and appends each outcome to the path.
    [slots] is the program length.  Once the path would exceed [cap_bytes]
    (default unlimited) the recording stops storing and {!finish} reports
    [`Overflow]; the wrapped [exec] keeps returning [live]'s outcomes. *)

val finish :
  recorder ->
  steps:int ->
  trapped:string option ->
  output:string ->
  (t, [ `Overflow | `Incomplete ]) result
(** Close a recording after the engine run that drove it returned
    normally with [(steps, trapped)]; [output] is the session's program
    output.  [`Incomplete] when the run stopped out of fuel (a longer
    budget would have executed further) or its step count disagrees with
    the recorded calls; [`Overflow] when the path outgrew its cap.  A run
    cut short by an exception must simply not be finished. *)

val replayer : t -> Engine.exec
(** A fresh [exec] that ignores its arguments and returns the recorded
    outcomes in order.  Each replayed [Quicken] carries a fresh copy of
    its recorded operands, so runs never share program state.  Under less
    fuel than the recorded run the engine stops early, as a live run
    would.  Called past the end of the path it returns a [Trap]. *)

val steps : t -> int
(** Executed VM instructions of the recorded run. *)

val output : t -> string
(** The recorded run's program output. *)

val bytes : t -> int
(** Approximate heap footprint, for cache budgets. *)

(** {2 The packed stream, for {!Path_walk}} *)

val code_bits : int
(** Entry [e] stands for [e lsr code_bits] [Next]s followed by the
    outcome coded [e land code_mask]: [Jump c] for a code [c] below
    {!slots}, else [side p (c - slots p)]. *)

val code_mask : int
val slots : t -> int

val entries : t -> int array
(** The stored outcomes in order, the end marker last.  Do not mutate. *)

val side : t -> int -> Vmbp_vm.Control.t
(** A side-table outcome; a [Quicken] carries a fresh operand copy. *)
