(** Event counters collected while simulating one interpreter run.

    These mirror the performance-monitoring counters used in Section 7.3 of
    the paper: retired native instructions, executed indirect branches,
    mispredicted indirect branches, instruction-cache misses, and the size of
    run-time generated code. *)

type t = {
  mutable vm_instrs : int;  (** executed VM-level instructions *)
  mutable native_instrs : int;  (** retired simulated native instructions *)
  mutable dispatches : int;  (** executed dispatch indirect branches *)
  mutable indirect_branches : int;
      (** all executed indirect branches (dispatches plus indirect calls) *)
  mutable mispredicts : int;  (** mispredicted indirect branches *)
  mutable vm_branch_mispredicts : int;
      (** the subset of [mispredicts] whose dispatching instruction was a
          VM-level control transfer (branch, call, return -- taken or not):
          the residue the paper attributes the post-replication
          mispredictions to *)
  mutable icache_fetches : int;  (** I-cache line accesses *)
  mutable icache_misses : int;  (** I-cache line misses *)
  mutable code_bytes : int;  (** bytes of code generated at run time *)
  mutable quickenings : int;  (** VM instructions rewritten by quickening *)
}

val create : unit -> t
(** A fresh, all-zero counter set. *)

val copy : t -> t
(** An independent snapshot. *)

val misprediction_rate : t -> float
(** Mispredicted fraction of executed indirect branches (0 when none ran). *)

val pp : Format.formatter -> t -> unit
(** Render every counter on one line, for logs and debug output. *)
