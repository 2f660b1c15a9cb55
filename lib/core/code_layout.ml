open Vmbp_vm

type dispatch = { branch_addr : int; instrs : int }

type site = {
  mutable entry_addr : int;
  mutable fetch_addr : int;
  mutable fetch_bytes : int;
  mutable work_instrs : int;
  mutable pre_dispatch : dispatch option;
  mutable post_fall : dispatch option;
  mutable post_taken : dispatch option;
  mutable fall_extra_instrs : int;
  mutable call_fetch_addr : int;
  mutable call_fetch_bytes : int;
}

type t = {
  program : Program.t;
  technique : Technique.t;
  costs : Costs.t;
  sites : site array;
  shadow : site array;
  shadow_until : int array;
  mutable runtime_code_bytes : int;
  mutable on_quicken : t -> slot:int -> unit;
}

let make_site ~entry ~fetch ~bytes ~instrs =
  {
    entry_addr = entry;
    fetch_addr = fetch;
    fetch_bytes = bytes;
    work_instrs = instrs;
    pre_dispatch = None;
    post_fall = None;
    post_taken = None;
    fall_extra_instrs = 0;
    call_fetch_addr = 0;
    call_fetch_bytes = 0;
  }

let copy_site_into ~src ~dst =
  dst.entry_addr <- src.entry_addr;
  dst.fetch_addr <- src.fetch_addr;
  dst.fetch_bytes <- src.fetch_bytes;
  dst.work_instrs <- src.work_instrs;
  dst.pre_dispatch <- src.pre_dispatch;
  dst.post_fall <- src.post_fall;
  dst.post_taken <- src.post_taken;
  dst.fall_extra_instrs <- src.fall_extra_instrs;
  dst.call_fetch_addr <- src.call_fetch_addr;
  dst.call_fetch_bytes <- src.call_fetch_bytes

let quicken t ~slot ~new_opcode ~new_operands =
  let s = t.program.Program.code.(slot) in
  s.Program.opcode <- new_opcode;
  s.Program.operands <- new_operands;
  t.on_quicken t ~slot
