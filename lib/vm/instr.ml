type branch_kind =
  | Straight
  | Cond_branch of int
  | Uncond_branch of int
  | Indirect_branch
  | Call of int
  | Indirect_call
  | Return
  | Stop

type t = {
  opcode : int;
  name : string;
  work_instrs : int;
  work_bytes : int;
  relocatable : bool;
  branch : branch_kind;
  operand_count : int;
  quickable : bool;
  quick_of : int option;
  mutable quick_targets : int list;
}

let is_basic_block_end t =
  match t.branch with
  | Straight -> false
  | Cond_branch _ | Uncond_branch _ | Indirect_branch | Call _ | Indirect_call
  | Return | Stop ->
      true

let pp ppf t =
  Format.fprintf ppf "%s(#%d, %d instrs, %dB%s%s)" t.name t.opcode
    t.work_instrs t.work_bytes
    (if t.relocatable then "" else ", non-reloc")
    (if t.quickable then ", quickable" else "")
