(** Attribution tables for mispredicts and cache misses.

    One table aggregates one event family (BTB/two-level mispredicts, or
    I-cache line misses) by the VM opcode that suffered the event, the
    predictor/cache set it happened in, and -- for conflict events -- the
    VM opcode whose entry displaced the victim.  The tables are plain
    aggregation: the caller (the explain command's reference side, which
    reads every event's outcome off the reference models of a
    self-checked run) decides the category of every event and feeds it
    in; [total] is therefore directly comparable with the run's own miss
    counters, which is the validation the explain subcommand enforces. *)

type category =
  | Cold  (** first occurrence: nothing to predict from yet *)
  | Wrong_target
      (** the entry belonged to this branch but held a different target *)
  | Conflict of int
      (** the entry was displaced; the argument is the evicting VM opcode *)

type bucket = { mutable cold : int; mutable wrong : int; mutable conflict : int }

val bucket_total : bucket -> int

type t

val create : unit -> t

val note : t -> opcode:int -> branch:int -> set:int -> category -> unit
(** Record one event suffered by [opcode] at [branch] (a branch address or
    a cache line index) mapping to [set]; pass [set = -1] for simulators
    without set structure (unbounded BTB, case-block table). *)

val total : t -> int
(** Events recorded so far; equals the sum over all opcode buckets. *)

val by_opcode : t -> (int * bucket) list
(** Per-opcode buckets, sorted by descending total (ties by opcode). *)

val conflicts : t -> ((int * int * int) * int) list
(** [((victim_opcode, evictor_opcode, set), count)] for every conflict
    event, sorted by descending count (ties by key). *)

val set_counts : t -> nsets:int -> int array
(** Events per set, for sets [0 .. nsets-1]; events with [set = -1] or out
    of range are not included. *)

val set_occupancy : t -> nsets:int -> int array
(** Distinct branches (or lines) seen per set. *)
