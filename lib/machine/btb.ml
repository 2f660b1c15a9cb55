type config = {
  entries : int;
  associativity : int;
  two_bit_counters : bool;
}

let ideal = { entries = 0; associativity = 1; two_bit_counters = false }

let classic ~entries ~associativity =
  { entries; associativity; two_bit_counters = false }

let with_counters ~entries ~associativity =
  { entries; associativity; two_bit_counters = true }

(* The format is embedded in store fingerprints; keep it stable. *)
let descriptor { entries; associativity; two_bit_counters } =
  Printf.sprintf "btb(%d,%d,%b)" entries associativity two_bit_counters

(* One way of one set is four parallel-array slots at [set * assoc + i]:
   [tag] is the full branch address (-1 = invalid); [counter] implements
   the two-bit hysteresis (3..2 = strong, replace only below 2); [stamp]
   is a per-set LRU timestamp.  Flat int arrays instead of an array of
   way records: the access path runs once per dispatch -- the hottest
   simulator code in both live runs and path walks -- and scanning
   boxed records costs one pointer chase per way examined. *)

(* The unbounded ("ideal") table: open-addressing over flat int arrays,
   keyed by branch address with linear probing.  This table takes one
   lookup per dispatch per configuration of a path walk -- a generic
   [Hashtbl] there costs a hash closure, a boxed bucket walk and an option
   allocation per access, which measured ~3x the whole rest of the replay
   loop -- so it gets the same flat-array treatment as the finite sets.
   [-1] marks an empty slot (branch addresses are non-negative). *)
type ub = {
  mutable ub_keys : int array;
  mutable ub_targets : int array;
  mutable ub_counters : int array;
  mutable ub_count : int;
  mutable ub_mask : int;
}

let ub_create () =
  let cap = 1024 in
  {
    ub_keys = Array.make cap (-1);
    ub_targets = Array.make cap 0;
    ub_counters = Array.make cap 0;
    ub_count = 0;
    ub_mask = cap - 1;
  }

let[@inline] ub_slot u branch =
  (* Multiplicative hash; linear probe.  The table never exceeds half
     load, so probes terminate. *)
  let i = ref ((branch * 0x9E3779B1) lsr 7 land u.ub_mask) in
  let keys = u.ub_keys in
  while
    let k = Array.unsafe_get keys !i in
    k <> branch && k >= 0
  do
    i := (!i + 1) land u.ub_mask
  done;
  !i

let ub_grow u =
  let keys = u.ub_keys and targets = u.ub_targets and counters = u.ub_counters in
  let cap = 2 * Array.length keys in
  u.ub_keys <- Array.make cap (-1);
  u.ub_targets <- Array.make cap 0;
  u.ub_counters <- Array.make cap 0;
  u.ub_mask <- cap - 1;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = ub_slot u k in
        u.ub_keys.(j) <- k;
        u.ub_targets.(j) <- targets.(i);
        u.ub_counters.(j) <- counters.(i)
      end)
    keys

let ub_reset u =
  Array.fill u.ub_keys 0 (Array.length u.ub_keys) (-1);
  u.ub_count <- 0

type t = {
  cfg : config;
  two_bit : bool;  (* [cfg.two_bit_counters], flat -- skips the config
                      pointer chase on every access *)
  assoc : int;  (* ways per set; 0 = unbounded configuration *)
  nsets : int;
  f_tags : int array;  (* finite table, way-major within each set *)
  f_targets : int array;
  f_counters : int array;
  f_stamps : int array;
  set_mask : int;
      (* nsets - 1 when the set count is a power of two (every paper
         geometry), so the per-access set index is a mask instead of a
         division; -1 = fall back to [mod] *)
  unbounded : ub;  (* branch -> target, counter *)
  mutable tick : int;
}

let create cfg =
  (* [entries = 0] is the documented unbounded-table sentinel ({!ideal});
     anything below it can only come from a malformed configuration, and
     without this check it would surface as an obscure [Array.init] or
     modulo failure deep in the hot loop. *)
  if cfg.entries < 0 then
    invalid_arg "Btb.create: entries must be non-negative";
  if cfg.entries > 0 && cfg.associativity <= 0 then
    invalid_arg "Btb.create: associativity must be positive";
  if cfg.entries > 0 && cfg.entries mod cfg.associativity <> 0 then
    invalid_arg "Btb.create: entries must be a multiple of associativity";
  let assoc = if cfg.entries = 0 then 0 else cfg.associativity in
  let nsets = if assoc = 0 then 0 else cfg.entries / cfg.associativity in
  let set_mask =
    if nsets > 0 && nsets land (nsets - 1) = 0 then nsets - 1 else -1
  in
  {
    cfg;
    two_bit = cfg.two_bit_counters;
    assoc;
    nsets;
    f_tags = Array.make (max 1 cfg.entries) (-1);
    f_targets = Array.make (max 1 cfg.entries) 0;
    f_counters = Array.make (max 1 cfg.entries) 0;
    f_stamps = Array.make (max 1 cfg.entries) 0;
    set_mask;
    unbounded = ub_create ();
    tick = 0;
  }

let config t = t.cfg

let[@inline] set_index t branch =
  (* Branch addresses are byte addresses; drop low bits so neighbouring
     branches do not all collide in set 0. *)
  let h = branch lsr 2 in
  if t.set_mask >= 0 then h land t.set_mask else h mod t.nsets

(* Slot of [branch] in the finite table, -1 when absent. *)
let find_slot t branch =
  let base = set_index t branch * t.assoc in
  let rec loop i =
    if i >= t.assoc then -1
    else if t.f_tags.(base + i) = branch then base + i
    else loop (i + 1)
  in
  loop 0

let predict t ~branch =
  if t.assoc = 0 then begin
    if branch < 0 then None
    else
      let u = t.unbounded in
      let i = ub_slot u branch in
      if u.ub_keys.(i) = branch then Some u.ub_targets.(i) else None
  end
  else
    match find_slot t branch with
    | -1 -> None
    | j -> Some t.f_targets.(j)

(* Training discipline (inlined at both access sites to keep the per-event
   path allocation-free): with two-bit counters a correct prediction
   saturates the counter at 3; an incorrect one decrements it and only
   replaces the target once the counter drops below 2. *)

(* [access_*] run once per dispatch per walked configuration -- the
   hottest code in a path walk -- so they avoid the option-allocating
   lookups. *)

let[@inline] access_unbounded t ~branch ~target =
  if branch < 0 then invalid_arg "Btb.access: negative branch address";
  let u = t.unbounded in
  let i = ub_slot u branch in
  if Array.unsafe_get u.ub_keys i = branch then begin
    let stored = Array.unsafe_get u.ub_targets i in
    let correct = stored = target in
    let counter = Array.unsafe_get u.ub_counters i in
    (if correct then
       Array.unsafe_set u.ub_counters i (if counter >= 3 then 3 else counter + 1)
     else if not t.two_bit then begin
       Array.unsafe_set u.ub_targets i target;
       Array.unsafe_set u.ub_counters i 0
     end
     else if counter >= 2 then Array.unsafe_set u.ub_counters i (counter - 1)
     else begin
       Array.unsafe_set u.ub_targets i target;
       Array.unsafe_set u.ub_counters i 2
     end);
    correct
  end
  else begin
    u.ub_keys.(i) <- branch;
    u.ub_targets.(i) <- target;
    u.ub_counters.(i) <- 2;
    u.ub_count <- u.ub_count + 1;
    if 2 * u.ub_count > Array.length u.ub_keys then ub_grow t.unbounded;
    false
  end

let[@inline] access_finite t ~branch ~target =
  t.tick <- t.tick + 1;
  let assoc = t.assoc in
  let base = set_index t branch * assoc in
  let tags = t.f_tags in
  let hit = ref (-1) in
  let i = ref 0 in
  while !hit < 0 && !i < assoc do
    if Array.unsafe_get tags (base + !i) = branch then hit := base + !i;
    incr i
  done;
  if !hit >= 0 then begin
    let j = !hit in
    let targets = t.f_targets and counters = t.f_counters in
    let correct = Array.unsafe_get targets j = target in
    let c = Array.unsafe_get counters j in
    (if correct then Array.unsafe_set counters j (if c >= 3 then 3 else c + 1)
     else if not t.two_bit then begin
       Array.unsafe_set targets j target;
       Array.unsafe_set counters j 0
     end
     else if c >= 2 then Array.unsafe_set counters j (c - 1)
     else begin
       Array.unsafe_set targets j target;
       Array.unsafe_set counters j 2
     end);
    Array.unsafe_set t.f_stamps j t.tick;
    correct
  end
  else begin
    (* Miss: allocate the LRU way of the set. *)
    let stamps = t.f_stamps in
    let victim = ref base in
    for i = 1 to assoc - 1 do
      if Array.unsafe_get stamps (base + i) < Array.unsafe_get stamps !victim
      then victim := base + i
    done;
    let j = !victim in
    Array.unsafe_set tags j branch;
    Array.unsafe_set t.f_targets j target;
    Array.unsafe_set t.f_counters j 2;
    Array.unsafe_set stamps j t.tick;
    false
  end

let[@inline] access t ~branch ~target =
  if t.assoc = 0 then access_unbounded t ~branch ~target
  else access_finite t ~branch ~target

(* The path-walk kernel: every dispatch of a block of slot ranges (see
   {!Slot_ranges}), in order -- the entering dispatch of each slot, then
   its pre-dispatch.  Here so [access] inlines into the loop (the
   libraries build with [-opaque]; nothing inlines across modules). *)
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
  ub_reset t.unbounded;
  t.tick <- 0;
  Array.fill t.f_tags 0 (Array.length t.f_tags) (-1);
  Array.fill t.f_targets 0 (Array.length t.f_targets) 0;
  Array.fill t.f_counters 0 (Array.length t.f_counters) 0;
  Array.fill t.f_stamps 0 (Array.length t.f_stamps) 0
