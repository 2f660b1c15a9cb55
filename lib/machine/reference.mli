(** Naive, obviously-correct reference models of the predictors and of
    the I-cache, used as differential-testing oracles.

    These implementations share no code with {!Btb}, {!Two_level},
    {!Case_block_table}, {!Icache} or {!Predictor}: sets are association
    lists, tables are persistent maps, and every update rebuilds its
    structure.  They are meant to be slow and transparent.  The
    self-check harness (Audit, in the report library) drives a fast
    simulator and a reference model over the same event stream and flags
    the first event where their answers differ.

    Every access and fetch reports what happened as a value: the set,
    the outcome and the entry a miss displaced.  The fast simulators only
    answer hit or miss; the explain command attributes its events from
    these reports, read off the self-checked run. *)

(** {1 Predictors} *)

type predictor

(** Build a reference model of the given predictor kind.  Validates the
    configuration with the same rules as the fast constructors and
    raises [Invalid_argument] on a malformed one. *)
val create_predictor : Predictor.kind -> predictor

type outcome =
  | Hit  (** entry present, predicted target correct *)
  | Wrong_target  (** entry present for this branch, stale target *)
  | Miss  (** no entry for this branch; one was allocated *)

type access = {
  outcome : outcome;
  set : int;
      (** the BTB set, or the two-level or case-block table slot; [-1]
          for the unbounded BTB and for [Perfect]/[Never] *)
  evicted : int;
      (** the branch a BTB miss displaced from its way; [-1] when the way
          was empty, and for every other access *)
}
(** One access.  The two-level and case-block tables have no tags: a
    [Miss] there means the slot was empty, a [Wrong_target] that it held
    another target, whichever branch wrote it.  [Perfect] always hits and
    [Never] always misses. *)

(** Same contract as {!Predictor.access}: record the outcome of one
    indirect branch; the model predicted it when the outcome is [Hit]. *)
val access : predictor -> branch:int -> target:int -> opcode:int -> access

(** {1 I-cache} *)

type icache

(** Build a reference model of the I-cache.  [size_bytes = 0] is the
    infinite cache, as for {!Icache.create}. *)
val create_icache : Icache.config -> icache

type miss = {
  line : int;  (** the missed line index *)
  set : int;
  evicted : int;
      (** the line its allocation displaced; [-1] when the way was empty *)
}

(** Same contract as {!Icache.fetch}: touch every cache line the fetched
    span touches, in address order.  Returns the number of lines that hit
    and every line that missed, in order.  The infinite cache never
    misses. *)
val fetch : icache -> addr:int -> bytes:int -> int * miss list
