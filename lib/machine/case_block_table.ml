type t = { table : int array; mask : int }

(* The format is embedded in store fingerprints; keep it stable. *)
let descriptor ~entries = Printf.sprintf "caseblock(%d)" entries

let create ~entries =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Case_block_table.create: entries must be a power of two";
  { table = Array.make entries (-1); mask = entries - 1 }

let[@inline] access t ~opcode ~target =
  (* [mask] is non-negative, so [i] is in range for any opcode. *)
  let i = opcode land t.mask in
  let correct = Array.unsafe_get t.table i = target in
  Array.unsafe_set t.table i target;
  correct

(* The path-walk kernel, with {!Btb.run_ranges}' event order; every
   dispatch is keyed on the opcode it dispatches to.  Here so [access]
   inlines into the loop (the libraries build with [-opaque]; nothing
   inlines across modules). *)
let run_ranges t (b : Slot_ranges.t) ~mis ~vm_mis =
  let m = ref 0 and v = ref 0 in
  for r = 0 to b.Slot_ranges.len - 1 do
    let c =
      if Array.unsafe_get b.Slot_ranges.in_shadow r then b.Slot_ranges.shadow
      else b.Slot_ranges.main
    in
    let entry = c.Slot_ranges.entry and fetch = c.Slot_ranges.fetch_addr in
    let pre = c.Slot_ranges.pre_addr and fall = c.Slot_ranges.fall_addr in
    let transfer = c.Slot_ranges.transfer and opcode = c.Slot_ranges.opcode in
    let lo = Array.unsafe_get b.Slot_ranges.lo r in
    let hi = Array.unsafe_get b.Slot_ranges.hi r in
    let op = Array.unsafe_get opcode lo in
    if
      Array.unsafe_get b.Slot_ranges.enter r >= 0
      && not (access t ~opcode:op ~target:(Array.unsafe_get entry lo))
    then begin
      incr m;
      if Array.unsafe_get b.Slot_ranges.enter_transfer r then incr v
    end;
    if
      Array.unsafe_get pre lo >= 0
      && not (access t ~opcode:op ~target:(Array.unsafe_get fetch lo))
    then incr m;
    for k = lo + 1 to hi do
      let op = Array.unsafe_get opcode k in
      if
        Array.unsafe_get fall (k - 1) >= 0
        && not (access t ~opcode:op ~target:(Array.unsafe_get entry k))
      then begin
        incr m;
        if Array.unsafe_get transfer (k - 1) then incr v
      end;
      if
        Array.unsafe_get pre k >= 0
        && not (access t ~opcode:op ~target:(Array.unsafe_get fetch k))
      then incr m
    done
  done;
  mis := !mis + !m;
  vm_mis := !vm_mis + !v
