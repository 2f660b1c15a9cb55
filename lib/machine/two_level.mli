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
    Stable across runs -- the resume journal embeds it. *)

type t

val create : config -> t
(** Raises [Invalid_argument] unless [entries] is a positive power of
    two and [history] is in 1..15 (each entry occupies 4 bits of the
    history register, which must fit a word). *)

val access : t -> branch:int -> target:int -> bool
(** Predict-and-update; returns [true] on a correct prediction. *)

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
(** Block kernel of a banked replay, with {!Btb.replay_block}'s contract:
    {!access} once per event [codes.(0)] .. [codes.(len - 1)], adding the
    mispredictions to [mis] and their VM-transfer subset to [vm_mis]. *)

val set_observer :
  t -> (branch:int -> index:int -> empty:bool -> correct:bool -> unit) option
  -> unit
(** Introspection hook, called once per {!access} with the table [index]
    the branch hashed to, whether that slot was still [empty], and the
    prediction outcome.  Absent (the default), the hook costs one match
    per access and can never change a decision -- same contract as the
    engine's [?poll] hook. *)

val reset : t -> unit
