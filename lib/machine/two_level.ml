type config = { entries : int; history : int }

let default = { entries = 1024; history = 4 }

(* The format is embedded in store fingerprints; keep it stable. *)
let descriptor { entries; history } =
  Printf.sprintf "twolevel(%d,%d)" entries history

type t = {
  cfg : config;
  table : int array;  (* predicted targets, -1 = empty *)
  index_mask : int;  (* entries - 1 *)
  history_mask : int;  (* the low [4 * history] bits *)
  mutable ghr : int;  (* hashed path history register *)
}

let create cfg =
  if cfg.entries <= 0 || cfg.entries land (cfg.entries - 1) <> 0 then
    invalid_arg "Two_level.create: entries must be a positive power of two";
  (* Each history entry contributes 4 bits to the register; above 15 the
     mask shift would exceed the OCaml word and the register silently
     degenerates, so reject it up front like the other geometry checks. *)
  if cfg.history <= 0 || cfg.history > 15 then
    invalid_arg "Two_level.create: history must be in 1..15";
  {
    cfg;
    table = Array.make cfg.entries (-1);
    index_mask = cfg.entries - 1;
    history_mask = (1 lsl (4 * cfg.history)) - 1;
    ghr = 0;
  }

(* Fold the branch address and path history into a table index.  The
   multiplicative hash spreads byte addresses that share low bits. *)
let[@inline] index t branch =
  let h = (branch * 2654435761) lxor t.ghr in
  (h lsr 4) land t.index_mask

let[@inline] access t ~branch ~target =
  let i = index t branch in
  (* [i] is masked to the table size. *)
  let correct = Array.unsafe_get t.table i = target in
  Array.unsafe_set t.table i target;
  t.ghr <- ((t.ghr lsl 4) lxor (target lsr 4) lxor target) land t.history_mask;
  correct

(* The path-walk kernel, with {!Btb.run_ranges}' event order; here so
   [access] inlines into the loop (the libraries build with [-opaque];
   nothing inlines across modules). *)
let run_ranges t (b : Slot_ranges.t) ~mis ~vm_mis =
  let m = ref 0 and v = ref 0 in
  for r = 0 to b.Slot_ranges.len - 1 do
    let c =
      if Array.unsafe_get b.Slot_ranges.in_shadow r then b.Slot_ranges.shadow
      else b.Slot_ranges.main
    in
    let entry = c.Slot_ranges.entry and fetch = c.Slot_ranges.fetch_addr in
    let pre = c.Slot_ranges.pre_addr and fall = c.Slot_ranges.fall_addr in
    let transfer = c.Slot_ranges.transfer in
    let lo = Array.unsafe_get b.Slot_ranges.lo r in
    let hi = Array.unsafe_get b.Slot_ranges.hi r in
    let br = Array.unsafe_get b.Slot_ranges.enter r in
    if br >= 0 && not (access t ~branch:br ~target:(Array.unsafe_get entry lo))
    then begin
      incr m;
      if Array.unsafe_get b.Slot_ranges.enter_transfer r then incr v
    end;
    let p = Array.unsafe_get pre lo in
    if p >= 0 && not (access t ~branch:p ~target:(Array.unsafe_get fetch lo))
    then incr m;
    for k = lo + 1 to hi do
      let br = Array.unsafe_get fall (k - 1) in
      if br >= 0 && not (access t ~branch:br ~target:(Array.unsafe_get entry k))
      then begin
        incr m;
        if Array.unsafe_get transfer (k - 1) then incr v
      end;
      let p = Array.unsafe_get pre k in
      if p >= 0 && not (access t ~branch:p ~target:(Array.unsafe_get fetch k))
      then incr m
    done
  done;
  mis := !mis + !m;
  vm_mis := !vm_mis + !v

let reset t =
  Array.fill t.table 0 (Array.length t.table) (-1);
  t.ghr <- 0
