(** Branch target buffer simulator (Section 2.2 of the paper).

    A BTB is indexed by the address of an indirect branch and predicts that
    the branch jumps to the same target as on its previous execution.  Real
    BTBs have limited capacity and associativity, producing capacity and
    conflict misses; an unbounded configuration models the idealised BTB used
    in the paper's worked examples (Tables I-IV).

    The optional two-bit-counter variant ("BTB-2bc", from Ertl and Gregg
    2003b) only replaces a stored target after the entry has mispredicted on
    two consecutive executions, which filters out transient target changes. *)

type config = {
  entries : int;  (** total entries; [0] means unbounded (idealised BTB) *)
  associativity : int;  (** ways per set; ignored when unbounded *)
  two_bit_counters : bool;  (** hysteresis on target replacement *)
}

val ideal : config
(** Unbounded BTB, immediate target replacement. *)

val classic : entries:int -> associativity:int -> config
(** Finite BTB without counters, as in the Pentium III / Athlon. *)

val with_counters : entries:int -> associativity:int -> config
(** Finite BTB with two-bit counters. *)

val descriptor : config -> string
(** Canonical fingerprint ["btb(entries,assoc,two_bit)"] of the
    configuration; distinct configurations produce distinct strings.
    Stable across runs -- the resume journal embeds it. *)

type t

val create : config -> t

val config : t -> config

val set_index : t -> int -> int
(** The set the branch at the given byte address maps to.  Only meaningful
    for finite configurations.  Exposed so tests can check that neighbouring
    dispatch branches spread across sets instead of piling into one. *)

val predict : t -> branch:int -> int option
(** Predicted target for the branch at address [branch], if any entry is
    present.  Does not update any state. *)

val access : t -> branch:int -> target:int -> bool
(** Perform one predict-and-update cycle: returns [true] when the stored
    prediction matched [target], then trains the table on the outcome. *)

val replay_block :
  t ->
  branch:int array ->
  target:int array ->
  vm_transfer:int array ->
  codes:int array ->
  len:int ->
  mis:int ref ->
  vm_mis:int ref ->
  unit
(** Block kernel of a banked replay: {!access} once for each of the events
    [codes.(0)] .. [codes.(len - 1)], in order, where event [c] is the
    branch [branch.(c)] going to [target.(c)].  Adds the mispredictions
    to [mis] and the subset whose [vm_transfer.(c)] is [1] (a VM-level
    control transfer; [0] otherwise) to [vm_mis].  Same outcomes, same
    state and same observer calls as the per-event loop. *)

val reset : t -> unit
(** Forget all stored targets. *)

(** {2 Introspection}

    One outcome per {!access}, reported to an optional observer.  The
    observer sees exactly what the simulator decided -- it can never
    change a decision -- and costs one match per access when absent, so
    production runs pay nothing measurable (same contract as the engine's
    [?poll] hook). *)

type outcome =
  | Hit  (** entry present, predicted target correct *)
  | Wrong_target  (** entry present for this branch, stale target *)
  | Miss of { evicted : int }
      (** no entry; one was allocated, displacing the branch [evicted]
          ([-1] when the way was empty).  Unbounded tables never evict. *)

type observer = branch:int -> set:int -> outcome -> unit
(** [set] is {!set_index} of the branch, or [-1] for unbounded tables. *)

val set_observer : t -> observer option -> unit
