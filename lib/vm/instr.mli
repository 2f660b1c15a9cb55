(** VM instruction descriptors.

    A descriptor records everything the dispatch optimizer and the machine
    simulator need to know about one VM instruction: the shape of the native
    routine implementing it (instruction count and code bytes), whether the
    routine is relocatable (copyable by the dynamic techniques, Section 5.2),
    its control-flow behaviour, and its quickening relationships
    (Section 5.4).  Execution semantics live with each VM front end, keyed by
    opcode. *)

type branch_kind =
  | Straight  (** ordinary instruction; control falls through *)
  | Cond_branch of int
      (** conditional VM branch; the operand at this index holds the target
          slot.  May fall through or jump. *)
  | Uncond_branch of int  (** unconditional VM branch (GOTO) *)
  | Indirect_branch  (** target computed at run time (e.g. tableswitch) *)
  | Call of int  (** direct call; operand holds the callee entry slot *)
  | Indirect_call  (** callee resolved at run time (e.g. invokevirtual) *)
  | Return  (** VM-level return *)
  | Stop  (** halts the virtual machine *)

type t = {
  opcode : int;  (** index in the owning {!Instr_set.t} *)
  name : string;
  work_instrs : int;  (** native instructions of the routine body *)
  work_bytes : int;  (** code bytes of the routine body *)
  relocatable : bool;  (** whether dynamic techniques may copy the routine *)
  branch : branch_kind;
  operand_count : int;  (** immediate operands stored in the VM code slot *)
  quickable : bool;  (** rewrites itself to a quick version on first run *)
  quick_of : int option;  (** original opcode when this is a quick version *)
  mutable quick_targets : int list;
      (** possible quick replacements of a quickable instruction; filled in
          by {!Instr_set.set_quick_family} after all opcodes exist *)
}

val is_basic_block_end : t -> bool
(** True when VM code execution cannot simply fall through this instruction
    into the next slot as straight-line code: branches, calls, returns and
    stops all end a basic block. *)

val pp : Format.formatter -> t -> unit
