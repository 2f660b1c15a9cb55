type t = { table : int array; mask : int }

(* The format is embedded in resume-journal fingerprints; keep it stable. *)
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

(* The banked-replay kernel, here so [access] inlines into the loop (the
   libraries build with [-opaque]; nothing inlines across modules). *)
let replay_block t ~opcode ~target ~vm_transfer ~codes ~len ~mis ~vm_mis =
  let m = ref 0 and v = ref 0 in
  for i = 0 to len - 1 do
    let c = codes.(i) in
    if not (access t ~opcode:opcode.(c) ~target:target.(c)) then begin
      incr m;
      v := !v + vm_transfer.(c)
    end
  done;
  mis := !mis + !m;
  vm_mis := !vm_mis + !v

let reset t = Array.fill t.table 0 (Array.length t.table) (-1)
