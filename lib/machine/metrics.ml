type t = {
  mutable vm_instrs : int;
  mutable native_instrs : int;
  mutable dispatches : int;
  mutable indirect_branches : int;
  mutable mispredicts : int;
  mutable vm_branch_mispredicts : int;
  mutable icache_fetches : int;
  mutable icache_misses : int;
  mutable code_bytes : int;
  mutable quickenings : int;
}

let create () =
  {
    vm_instrs = 0;
    native_instrs = 0;
    dispatches = 0;
    indirect_branches = 0;
    mispredicts = 0;
    vm_branch_mispredicts = 0;
    icache_fetches = 0;
    icache_misses = 0;
    code_bytes = 0;
    quickenings = 0;
  }

let copy m =
  {
    vm_instrs = m.vm_instrs;
    native_instrs = m.native_instrs;
    dispatches = m.dispatches;
    indirect_branches = m.indirect_branches;
    mispredicts = m.mispredicts;
    vm_branch_mispredicts = m.vm_branch_mispredicts;
    icache_fetches = m.icache_fetches;
    icache_misses = m.icache_misses;
    code_bytes = m.code_bytes;
    quickenings = m.quickenings;
  }

let misprediction_rate m =
  if m.indirect_branches = 0 then 0.
  else float_of_int m.mispredicts /. float_of_int m.indirect_branches

let pp ppf m =
  Format.fprintf ppf
    "vm=%d native=%d dispatches=%d indirect=%d mispredict=%d (vmbr %d) \
     icache=%d/%d code=%dB quicken=%d"
    m.vm_instrs m.native_instrs m.dispatches m.indirect_branches m.mispredicts
    m.vm_branch_mispredicts m.icache_misses m.icache_fetches m.code_bytes
    m.quickenings
