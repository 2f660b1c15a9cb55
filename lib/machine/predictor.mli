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
    journal fingerprints.  Stable across runs -- the resume journal embeds
    it -- so changing a format is a schema change. *)

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

val btb : t -> Btb.t option
(** The underlying BTB when the predictor is a [Btb], for attaching
    observers ({!Btb.set_observer}) and inspecting geometry. *)

val two_level : t -> Two_level.t option
(** The underlying two-level predictor when the kind is [Two_level]. *)

val access : t -> branch:int -> target:int -> opcode:int -> bool
(** One predict-and-update step for an executed indirect branch at address
    [branch] that actually went to [target]; [opcode] is the VM opcode being
    dispatched to (used only by the case block table).  Returns [true] when
    the prediction was correct. *)

val replay_block :
  t ->
  branch:int array ->
  target:int array ->
  opcode:int array ->
  vm_transfer:int array ->
  codes:int array ->
  len:int ->
  mis:int ref ->
  vm_mis:int ref ->
  unit
(** Block kernel of a banked replay: {!access} once per event
    [codes.(0)] .. [codes.(len - 1)], where event [c] is the dispatch
    [branch.(c)] -> [target.(c)] on [opcode.(c)], and [vm_transfer.(c)] is
    [1] when the dispatching instruction is a VM-level control transfer
    ([0] otherwise).  Adds the mispredictions to [mis] and their
    VM-transfer subset to [vm_mis].  One match per block picks the
    family's own kernel ({!Btb.replay_block}, {!Two_level.replay_block},
    {!Case_block_table.replay_block}), whose loop inlines that family's
    access; [Perfect] and [Never] only count. *)

val reset : t -> unit
