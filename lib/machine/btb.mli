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
    Stable across runs -- the store embeds it. *)

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

val run_ranges : t -> Slot_ranges.t -> mis:int ref -> vm_mis:int ref -> unit
(** Range kernel of a path walk: {!access} once for every dispatch of the
    block's ranges, in the order {!Slot_ranges} defines.  Adds the
    mispredictions to [mis] and the subset out of a VM-level control
    transfer to [vm_mis].  Same outcomes and same state as the per-event
    loop. *)
