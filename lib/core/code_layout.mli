(** The executable-code model of one interpreter configuration.

    A layout assigns every VM code slot an execution {e site}: which
    simulated native code runs for it (address and size, for the I-cache),
    how many native instructions that code retires, and which dispatch
    indirect branches execute around it (for the branch predictor).  The
    static and dynamic optimizers each build layouts; the engine only reads
    them.

    Address identity is what makes the BTB behave as in the paper: with
    plain threaded code all occurrences of a VM instruction share one
    dispatch branch address, with replication each copy has its own, with
    switch dispatch every slot shares the single switch branch. *)

type dispatch = {
  branch_addr : int;  (** address of the dispatch indirect branch *)
  instrs : int;  (** native instructions of the dispatch sequence *)
}

type site = {
  mutable entry_addr : int;
      (** the address stored in the threaded code: what predecessors'
          dispatch branches jump to *)
  mutable fetch_addr : int;  (** start of the code executed for the slot *)
  mutable fetch_bytes : int;  (** bytes fetched when the slot executes *)
  mutable work_instrs : int;  (** retired native instructions of the work *)
  mutable pre_dispatch : dispatch option;
      (** a dispatch executed on entry, before the work: the gap dispatch of
          a not-yet-quickened instruction inside a dynamic superinstruction
          (Section 5.4) *)
  mutable post_fall : dispatch option;
      (** dispatch executed when control falls through to the next slot;
          [None] inside a superinstruction *)
  mutable post_taken : dispatch option;
      (** dispatch executed when control leaves via a taken VM branch,
          call or return *)
  mutable fall_extra_instrs : int;
      (** native instructions still executed on the fall-through path when
          the dispatch is elided (the kept ip increment, Section 5.2) *)
  mutable call_fetch_addr : int;
      (** subroutine threading only: address of the native call instruction
          the tiny JIT emitted for this slot *)
  mutable call_fetch_bytes : int;  (** 0 everywhere else *)
}

type t = {
  program : Vmbp_vm.Program.t;  (** the live program; quickening mutates it *)
  technique : Technique.t;
  costs : Costs.t;
  sites : site array;  (** indexed by slot *)
  shadow : site array;
      (** non-replicated fallback sites; physically equal to [sites] except
          for [With_static_across_bb] *)
  shadow_until : int array;
      (** [shadow_until.(j) >= 0] means a taken branch entering slot [j]
          lands in the middle of a replicated static superinstruction and
          must execute non-replicated code up to and including that slot
          (Figure 6); [-1] everywhere else *)
  mutable runtime_code_bytes : int;
      (** code generated at interpreter run time by the dynamic methods *)
  mutable on_quicken : t -> slot:int -> unit;
      (** technique-specific layout repair after a slot is rewritten *)
}

val make_site :
  entry:int -> fetch:int -> bytes:int -> instrs:int -> site
(** A site with no dispatches and no extra fall-through cost. *)

val copy_site_into : src:site -> dst:site -> unit

val quicken :
  t -> slot:int -> new_opcode:int -> new_operands:int array -> unit
(** Install the quick instruction into the program slot and let the
    technique repair the affected sites. *)
