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
let btb t = match t.state with S_btb b -> Some b | _ -> None
let two_level t = match t.state with S_two_level p -> Some p | _ -> None

let access t ~branch ~target ~opcode =
  match t.state with
  | S_btb b -> Btb.access b ~branch ~target
  | S_two_level p -> Two_level.access p ~branch ~target
  | S_case_block c -> Case_block_table.access c ~opcode ~target
  | S_perfect -> true
  | S_never -> false

let replay_block t ~branch ~target ~opcode ~vm_transfer ~codes ~len ~mis
    ~vm_mis =
  match t.state with
  | S_btb b ->
      Btb.replay_block b ~branch ~target ~vm_transfer ~codes ~len ~mis ~vm_mis
  | S_two_level p ->
      Two_level.replay_block p ~branch ~target ~vm_transfer ~codes ~len ~mis
        ~vm_mis
  | S_case_block c ->
      Case_block_table.replay_block c ~opcode ~target ~vm_transfer ~codes ~len
        ~mis ~vm_mis
  | S_perfect -> ()
  | S_never ->
      let v = ref 0 in
      for i = 0 to len - 1 do
        v := !v + vm_transfer.(codes.(i))
      done;
      mis := !mis + len;
      vm_mis := !vm_mis + !v

let reset t =
  match t.state with
  | S_btb b -> Btb.reset b
  | S_two_level p -> Two_level.reset p
  | S_case_block c -> Case_block_table.reset c
  | S_perfect | S_never -> ()
