open Vmbp_vm
open Vmbp_machine
open Vmbp_core

type row = {
  step : int;
  vm_instr : string;
  btb_entry : string;
  prediction : string;
  actual : string;
  correct : bool;
}

(* Stable labels for code addresses: the first copy of "a" is "A", later
   distinct copies are "A2", "A3", ... *)
type labeller = {
  by_addr : (int, string) Hashtbl.t;
  next_index : (string, int) Hashtbl.t;
}

let make_labeller () =
  { by_addr = Hashtbl.create 32; next_index = Hashtbl.create 32 }

let label lab ~addr ~base =
  match Hashtbl.find_opt lab.by_addr addr with
  | Some s -> s
  | None ->
      let base = String.uppercase_ascii base in
      let n = Option.value (Hashtbl.find_opt lab.next_index base) ~default:0 in
      Hashtbl.replace lab.next_index base (n + 1);
      let s = if n = 0 then base else Printf.sprintf "%s%d" base (n + 1) in
      Hashtbl.replace lab.by_addr addr s;
      s

exception Enough

(* A sink over the one interpreter loop ({!Engine.run_events}).  Per step
   the loop emits the dispatch that entered the slot, then the slot's
   pre-dispatch (right after that one's fetch), then its other fetches,
   and only then executes the slot -- so a wrapped [exec] learns which slot
   the next dispatches belong to. *)
let trace ~technique ?profile ~program ~exec ~skip ~take () =
  let config = Config.make ~cpu:Cpu_model.ideal technique in
  let layout = Config.build_layout ?profile config ~program in
  let program = layout.Code_layout.program in
  let btb = Btb.create Btb.ideal in
  let entry_labels = make_labeller () in
  let branch_labels = make_labeller () in
  let rows = ref [] in
  let count = ref 0 in
  let is_switch = technique = Technique.Switch in
  let name_of slot = (Program.instr_at program slot).Instr.name in
  (* Names of the slots executed since the last dispatch: a superinstruction
     shows up as the joined names of its components, as in the paper's
     Table IV ("B_A"). *)
  let group = ref [] in
  (* The slot the next step executes, and whether a dispatch now would be
     the one entering it (no fetch of that step yet). *)
  let slot = ref program.Program.entry in
  let entering = ref true in
  let on_dispatch ~branch ~target ~opcode:_ ~vm_transfer:_ =
    let name = name_of !slot in
    (* A gap's pre-dispatch with nothing executed since the last dispatch
       is issued by the gap of the slot's own instruction. *)
    let issuer =
      if !entering || !group <> [] then String.concat "_" (List.rev !group)
      else name
    in
    group := [];
    entering := false;
    let actual = label entry_labels ~addr:target ~base:name in
    let prediction =
      match Btb.predict btb ~branch with
      | Some addr -> label entry_labels ~addr ~base:"?"
      | None -> "-"
    in
    let btb_entry =
      label branch_labels ~addr:branch
        ~base:(if is_switch then "switch" else issuer)
    in
    let correct = Btb.access btb ~branch ~target in
    if !count >= skip then
      rows :=
        {
          step = !count - skip + 1;
          vm_instr = String.uppercase_ascii issuer;
          btb_entry = "br-" ^ btb_entry;
          prediction;
          actual;
          correct;
        }
        :: !rows;
    incr count;
    if !count >= skip + take then raise Enough
  in
  let exec program i =
    group := name_of i :: !group;
    let control = exec program i in
    (match control with
    | Control.Next | Control.Quicken { after = Control.Next; _ } ->
        slot := i + 1
    | Control.Jump target | Control.Quicken { after = Control.Jump target; _ }
      ->
        slot := target
    | Control.Halt | Control.Trap _ | Control.Quicken _ -> ());
    entering := true;
    control
  in
  let sink =
    {
      Engine.on_dispatch;
      on_fetch = (fun ~addr:_ ~bytes:_ ~opcode:_ -> entering := false);
    }
  in
  (try
     ignore
       (Engine.run_events ~metrics:(Metrics.create ()) ~layout ~exec ~sink ()
         : int * string option)
   with Enough -> ());
  List.rev !rows

let render rows =
  Table.render
    ~headers:[ "#"; "VM instr"; "BTB entry"; "prediction"; "actual"; "" ]
    ~rows:
      (List.map
         (fun r ->
           [
             string_of_int r.step;
             r.vm_instr;
             r.btb_entry;
             r.prediction;
             r.actual;
             (if r.correct then "hit" else "MISS");
           ])
         rows)
