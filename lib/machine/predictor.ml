type kind =
  | Btb of Btb.config
  | Two_level of Two_level.config
  | Case_block of int
  | Perfect
  | Never

let kind_name = function
  | Btb { two_bit_counters = false; entries = 0; _ } -> "btb-ideal"
  | Btb { two_bit_counters = false; _ } -> "btb"
  | Btb { two_bit_counters = true; _ } -> "btb-2bc"
  | Two_level _ -> "two-level"
  | Case_block _ -> "case-block-table"
  | Perfect -> "perfect"
  | Never -> "never"

let descriptor = function
  | Btb cfg -> Btb.descriptor cfg
  | Two_level cfg -> Two_level.descriptor cfg
  | Case_block entries -> Case_block_table.descriptor ~entries
  | Perfect -> "perfect"
  | Never -> "never"

type state =
  | S_btb of Btb.t
  | S_two_level of Two_level.t
  | S_case_block of Case_block_table.t
  | S_perfect
  | S_never

type t = { kind : kind; state : state }

let create kind =
  let state =
    match kind with
    | Btb cfg -> S_btb (Btb.create cfg)
    | Two_level cfg -> S_two_level (Two_level.create cfg)
    | Case_block entries -> S_case_block (Case_block_table.create ~entries)
    | Perfect -> S_perfect
    | Never -> S_never
  in
  { kind; state }

let create_bank kinds =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun k ->
      let d = descriptor k in
      if Hashtbl.mem seen d then None
      else begin
        Hashtbl.add seen d ();
        match create k with
        | sim -> Some (d, sim)
        | exception _ -> None
      end)
    kinds

let kind t = t.kind

let access t ~branch ~target ~opcode =
  match t.state with
  | S_btb b -> Btb.access b ~branch ~target
  | S_two_level p -> Two_level.access p ~branch ~target
  | S_case_block c -> Case_block_table.access c ~opcode ~target
  | S_perfect -> true
  | S_never -> false

(* [Never] mispredicts every dispatch of the block; [Perfect] none. *)
let never_ranges (b : Slot_ranges.t) ~mis ~vm_mis =
  let m = ref 0 and v = ref 0 in
  for r = 0 to b.Slot_ranges.len - 1 do
    let c =
      if Array.unsafe_get b.Slot_ranges.in_shadow r then b.Slot_ranges.shadow
      else b.Slot_ranges.main
    in
    let pre = c.Slot_ranges.pre_addr and fall = c.Slot_ranges.fall_addr in
    let transfer = c.Slot_ranges.transfer in
    let lo = Array.unsafe_get b.Slot_ranges.lo r in
    let hi = Array.unsafe_get b.Slot_ranges.hi r in
    if Array.unsafe_get b.Slot_ranges.enter r >= 0 then begin
      incr m;
      if Array.unsafe_get b.Slot_ranges.enter_transfer r then incr v
    end;
    if Array.unsafe_get pre lo >= 0 then incr m;
    for k = lo + 1 to hi do
      if Array.unsafe_get fall (k - 1) >= 0 then begin
        incr m;
        if Array.unsafe_get transfer (k - 1) then incr v
      end;
      if Array.unsafe_get pre k >= 0 then incr m
    done
  done;
  mis := !mis + !m;
  vm_mis := !vm_mis + !v

let run_ranges t b ~mis ~vm_mis =
  match t.state with
  | S_btb p -> Btb.run_ranges p b ~mis ~vm_mis
  | S_two_level p -> Two_level.run_ranges p b ~mis ~vm_mis
  | S_case_block p -> Case_block_table.run_ranges p b ~mis ~vm_mis
  | S_perfect -> ()
  | S_never -> never_ranges b ~mis ~vm_mis
