(** Two-level indirect branch predictor (Driesen and Hoelzle 1998).

    Keeps a global history of recent indirect-branch targets and indexes the
    target table with a hash of the branch address and that history.  The
    paper's related-work section (Section 8) notes that such predictors --
    first shipped in the Pentium M -- correctly predict most interpreter
    dispatch branches even without replication; we implement one so the
    benches can reproduce that comparison. *)

type config = {
  entries : int;  (** target table size (power of two) *)
  history : int;  (** number of recent targets in the history register *)
}

val default : config
(** 1024 entries, 4 targets of path history. *)

val descriptor : config -> string
(** Canonical fingerprint ["twolevel(entries,history)"] of the
    configuration; distinct configurations produce distinct strings.
    Stable across runs -- the store embeds it. *)

type t

val create : config -> t
(** Raises [Invalid_argument] unless [entries] is a positive power of
    two and [history] is in 1..15 (each entry occupies 4 bits of the
    history register, which must fit a word). *)

val access : t -> branch:int -> target:int -> bool
(** Predict-and-update; returns [true] on a correct prediction. *)

val run_ranges : t -> Slot_ranges.t -> mis:int ref -> vm_mis:int ref -> unit
(** Range kernel of a path walk, with {!Btb.run_ranges}' contract:
    {!access} once per dispatch of the block's ranges, in {!Slot_ranges}'
    order, adding the mispredictions to [mis] and their VM-transfer subset
    to [vm_mis]. *)
