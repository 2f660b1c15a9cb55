(** Uniform interface over the indirect-branch predictors.

    The interpreter engine feeds every executed dispatch through
    [access]; the predictor kind selects which hardware model is simulated.
    [Perfect] and [Never] bound the achievable accuracy from above and
    below. *)

type kind =
  | Btb of Btb.config  (** branch target buffer, the paper's main subject *)
  | Two_level of Two_level.config  (** Pentium-M-style two-level predictor *)
  | Case_block of int  (** case block table with the given entry count *)
  | Perfect  (** every branch predicted correctly *)
  | Never  (** every branch mispredicted *)

val kind_name : kind -> string

val descriptor : kind -> string
(** Canonical, parameter-complete fingerprint of the configuration, e.g.
    ["btb(512,4,false)"] or ["twolevel(1024,4)"].  Distinct configurations
    produce distinct strings (the constructors use disjoint prefixes and
    spell out every field), so the string is a safe key for memo tables and
    store fingerprints.  Stable across runs -- the store embeds it -- so
    changing a format is a schema change. *)

type t

val create : kind -> t
val kind : t -> kind

val create_bank : kind list -> (string * t) list
(** Fresh simulators for the requested configurations, deduplicated by
    {!descriptor} in first-occurrence order -- the construction step of a
    banked replay, which drives all of them over one event stream.
    Configurations whose {!create} raises (invalid geometry) are dropped:
    the bank simulates the valid ones, and the per-cell path re-raises the
    error with cell context when the invalid configuration is actually
    used. *)

val access : t -> branch:int -> target:int -> opcode:int -> bool
(** One predict-and-update step for an executed indirect branch at address
    [branch] that actually went to [target]; [opcode] is the VM opcode being
    dispatched to (used only by the case block table).  Returns [true] when
    the prediction was correct. *)

val run_ranges : t -> Slot_ranges.t -> mis:int ref -> vm_mis:int ref -> unit
(** Range kernel of a path walk: {!access} once per dispatch of the
    block's ranges, in {!Slot_ranges}' order, adding the mispredictions to
    [mis] and their VM-transfer subset to [vm_mis].  One match per block
    picks the family's own kernel ({!Btb.run_ranges},
    {!Two_level.run_ranges}, {!Case_block_table.run_ranges}); [Perfect]
    and [Never] only count. *)
