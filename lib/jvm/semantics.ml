open Vmbp_vm
module R = Runtime

let o = Opcode.ops

type runner = R.state -> Program.t -> int -> int array -> Control.t

let next = Control.Next

let table : runner array =
  Array.make (Instr_set.size Opcode.iset) (fun _ _ _ _ ->
      Control.Trap "jvm: unimplemented opcode")

let def opcode f = table.(opcode) <- f

let binop opcode f =
  def opcode (fun st _ _ _ ->
      let b = R.pop st in
      let a = R.pop st in
      R.push st (f a b);
      next)

let cond1 opcode f =
  def opcode (fun st _ _ ops ->
      if f (R.pop st) then Control.Jump ops.(0) else next)

let cond2 opcode f =
  def opcode (fun st _ _ ops ->
      let b = R.pop st in
      let a = R.pop st in
      if f a b then Control.Jump ops.(0) else next)

(* Operand values are untrusted: [Program.make] checks opcodes, operand
   counts and branch targets but not what an operand indexes, and the fuzz
   suite's mutated images put any integer in a cp index, method id or
   vtable slot.  So every table lookup below bounds-checks and traps
   instead of letting an [Invalid_argument] escape the interpreter. *)
let cp_entry st idx =
  let cp = (R.image st).R.cp in
  if idx < 0 || idx >= Array.length cp then
    raise (R.Trap "constant pool index out of range");
  cp.(idx)

let class_id st name =
  match Hashtbl.find_opt (R.image st).R.class_ids name with
  | Some id -> id
  | None -> raise (R.Trap ("unknown class " ^ name))

let field_offset st cls field =
  let k = (R.image st).R.classes.(class_id st cls) in
  match Hashtbl.find_opt k.R.k_offsets field with
  | Some off -> off
  | None -> raise (R.Trap (Printf.sprintf "no field %s.%s" cls field))

let static_cell st name =
  match Hashtbl.find_opt (R.image st).R.static_ids name with
  | Some i -> i
  | None -> raise (R.Trap ("unknown static " ^ name))

let quicken ~opcode ~operands ~after =
  Control.Quicken { Control.new_opcode = opcode; new_operands = operands; after }

(* Perform a call to method [mid] and return the transfer. *)
let call st mid ~ret =
  let methods = (R.image st).R.methods in
  if mid < 0 || mid >= Array.length methods then
    raise (R.Trap "bad method id");
  let m = methods.(mid) in
  R.push_frame st ~nargs:m.R.mi_nargs ~nlocals:m.R.mi_nlocals ~ret;
  Control.Jump m.R.mi_entry

let resolve_virtual st vidx ~argc =
  if argc < 0 then raise (R.Trap "bad argument count");
  let receiver = R.peek st argc in
  let cls = R.obj_class st receiver in
  if cls < 0 then raise (R.Trap "virtual call on array or bad object");
  let vtable = (R.image st).R.classes.(cls).R.k_vtable in
  if vidx < 0 || vidx >= Array.length vtable then
    raise (R.Trap "bad vtable index");
  let mid = vtable.(vidx) in
  if mid < 0 then raise (R.Trap "no such virtual method");
  mid

let () =
  (* constants and locals *)
  def o.Opcode.iconst (fun st _ _ ops -> R.push st ops.(0); next);
  def o.Opcode.ldc (fun st _ _ ops ->
      match cp_entry st ops.(0) with
      | Classfile.CP_int v ->
          R.push st v;
          quicken ~opcode:o.Opcode.ldc_quick ~operands:[| v |] ~after:next
      | _ -> Control.Trap "ldc: bad constant pool entry");
  def o.Opcode.ldc_quick (fun st _ _ ops -> R.push st ops.(0); next);
  def o.Opcode.iload (fun st _ _ ops -> R.push st (R.local st ops.(0)); next);
  def o.Opcode.istore (fun st _ _ ops ->
      R.set_local st ops.(0) (R.pop st);
      next);
  def o.Opcode.iinc (fun st _ _ ops ->
      R.set_local st ops.(0) (R.local st ops.(0) + ops.(1));
      next);
  (* stack *)
  def o.Opcode.pop (fun st _ _ _ -> ignore (R.pop st); next);
  def o.Opcode.dup (fun st _ _ _ -> R.push st (R.peek st 0); next);
  def o.Opcode.dup_x1 (fun st _ _ _ ->
      let b = R.pop st in
      let a = R.pop st in
      R.push st b;
      R.push st a;
      R.push st b;
      next);
  def o.Opcode.swap (fun st _ _ _ ->
      let b = R.pop st in
      let a = R.pop st in
      R.push st b;
      R.push st a;
      next);
  (* arithmetic *)
  binop o.Opcode.iadd ( + );
  binop o.Opcode.isub ( - );
  binop o.Opcode.imul ( * );
  binop o.Opcode.idiv (fun a b ->
      if b = 0 then raise (R.Trap "division by zero") else a / b);
  binop o.Opcode.irem (fun a b ->
      if b = 0 then raise (R.Trap "division by zero") else a mod b);
  def o.Opcode.ineg (fun st _ _ _ -> R.push st (-R.pop st); next);
  binop o.Opcode.ishl (fun a b -> a lsl (b land 63));
  binop o.Opcode.ishr (fun a b -> a asr (b land 63));
  binop o.Opcode.iand ( land );
  binop o.Opcode.ior ( lor );
  binop o.Opcode.ixor ( lxor );
  (* control *)
  def o.Opcode.goto (fun _ _ _ ops -> Control.Jump ops.(0));
  def o.Opcode.tableswitch (fun st _ _ ops ->
      match cp_entry st ops.(0) with
      | Classfile.CP_switch { lo; targets } ->
          if Array.length targets = 0 then
            Control.Trap "tableswitch: empty target table"
          else begin
            let v = R.pop st in
            let idx = v - lo in
            if idx >= 0 && idx < Array.length targets - 1 then
              Control.Jump targets.(idx + 1)
            else Control.Jump targets.(0)
          end
      | _ -> Control.Trap "tableswitch: bad constant pool entry");
  cond1 o.Opcode.ifeq (fun v -> v = 0);
  cond1 o.Opcode.ifne (fun v -> v <> 0);
  cond1 o.Opcode.iflt (fun v -> v < 0);
  cond1 o.Opcode.ifge (fun v -> v >= 0);
  cond2 o.Opcode.if_icmpeq ( = );
  cond2 o.Opcode.if_icmpne ( <> );
  cond2 o.Opcode.if_icmplt ( < );
  cond2 o.Opcode.if_icmpge ( >= );
  (* objects *)
  def o.Opcode.new_ (fun st _ _ ops ->
      match cp_entry st ops.(0) with
      | Classfile.CP_class name ->
          let cls = class_id st name in
          R.push st (R.alloc_object st ~cls);
          quicken ~opcode:o.Opcode.new_quick ~operands:[| cls |] ~after:next
      | _ -> Control.Trap "new: bad constant pool entry");
  def o.Opcode.new_quick (fun st _ _ ops ->
      R.push st (R.alloc_object st ~cls:ops.(0));
      next);
  def o.Opcode.getfield (fun st _ _ ops ->
      match cp_entry st ops.(0) with
      | Classfile.CP_field { cls; field } ->
          let off = field_offset st cls field in
          let ref_ = R.pop st in
          R.push st (R.get_field st ~ref_ ~off);
          quicken ~opcode:o.Opcode.getfield_quick ~operands:[| off |]
            ~after:next
      | _ -> Control.Trap "getfield: bad constant pool entry");
  def o.Opcode.getfield_quick (fun st _ _ ops ->
      let ref_ = R.pop st in
      R.push st (R.get_field st ~ref_ ~off:ops.(0));
      next);
  def o.Opcode.putfield (fun st _ _ ops ->
      match cp_entry st ops.(0) with
      | Classfile.CP_field { cls; field } ->
          let off = field_offset st cls field in
          let v = R.pop st in
          let ref_ = R.pop st in
          R.set_field st ~ref_ ~off ~v;
          quicken ~opcode:o.Opcode.putfield_quick ~operands:[| off |]
            ~after:next
      | _ -> Control.Trap "putfield: bad constant pool entry");
  def o.Opcode.putfield_quick (fun st _ _ ops ->
      let v = R.pop st in
      let ref_ = R.pop st in
      R.set_field st ~ref_ ~off:ops.(0) ~v;
      next);
  def o.Opcode.getstatic (fun st _ _ ops ->
      match cp_entry st ops.(0) with
      | Classfile.CP_static name ->
          let cell = static_cell st name in
          R.push st (R.get_static st cell);
          quicken ~opcode:o.Opcode.getstatic_quick ~operands:[| cell |]
            ~after:next
      | _ -> Control.Trap "getstatic: bad constant pool entry");
  def o.Opcode.getstatic_quick (fun st _ _ ops ->
      R.push st (R.get_static st ops.(0));
      next);
  def o.Opcode.putstatic (fun st _ _ ops ->
      match cp_entry st ops.(0) with
      | Classfile.CP_static name ->
          let cell = static_cell st name in
          R.set_static st cell (R.pop st);
          quicken ~opcode:o.Opcode.putstatic_quick ~operands:[| cell |]
            ~after:next
      | _ -> Control.Trap "putstatic: bad constant pool entry");
  def o.Opcode.putstatic_quick (fun st _ _ ops ->
      R.set_static st ops.(0) (R.pop st);
      next);
  (* arrays *)
  def o.Opcode.newarray (fun st _ _ _ ->
      let len = R.pop st in
      R.push st (R.alloc_array st ~len);
      next);
  def o.Opcode.iaload (fun st _ _ _ ->
      let idx = R.pop st in
      let ref_ = R.pop st in
      R.push st (R.array_get st ~ref_ ~idx);
      next);
  def o.Opcode.iastore (fun st _ _ _ ->
      let v = R.pop st in
      let idx = R.pop st in
      let ref_ = R.pop st in
      R.array_set st ~ref_ ~idx ~v;
      next);
  def o.Opcode.arraylength (fun st _ _ _ ->
      R.push st (R.array_length st (R.pop st));
      next);
  (* calls *)
  def o.Opcode.invokestatic (fun st _ pc ops ->
      match cp_entry st ops.(0) with
      | Classfile.CP_method name -> (
          match
            Hashtbl.find_opt (R.image st).R.static_method_ids name
          with
          | Some mid ->
              let transfer = call st mid ~ret:(pc + 1) in
              quicken ~opcode:o.Opcode.invokestatic_quick ~operands:[| mid |]
                ~after:transfer
          | None -> Control.Trap ("unknown static method " ^ name))
      | _ -> Control.Trap "invokestatic: bad constant pool entry");
  def o.Opcode.invokestatic_quick (fun st _ pc ops -> call st ops.(0) ~ret:(pc + 1));
  def o.Opcode.invokevirtual (fun st _ pc ops ->
      match cp_entry st ops.(0) with
      | Classfile.CP_virtual name -> (
          match Hashtbl.find_opt (R.image st).R.vindex_of_name name with
          | Some vidx ->
              let argc = ops.(1) in
              let mid = resolve_virtual st vidx ~argc in
              let transfer = call st mid ~ret:(pc + 1) in
              quicken ~opcode:o.Opcode.invokevirtual_quick
                ~operands:[| vidx; argc |] ~after:transfer
          | None -> Control.Trap ("unknown virtual method " ^ name))
      | _ -> Control.Trap "invokevirtual: bad constant pool entry");
  def o.Opcode.invokevirtual_quick (fun st _ pc ops ->
      let mid = resolve_virtual st ops.(0) ~argc:ops.(1) in
      call st mid ~ret:(pc + 1));
  def o.Opcode.return_ (fun st _ _ _ ->
      match R.pop_frame st with
      | Some ret -> Control.Jump ret
      | None -> Control.Halt);
  def o.Opcode.ireturn (fun st _ _ _ ->
      let v = R.pop st in
      match R.pop_frame st with
      | Some ret ->
          R.push st v;
          Control.Jump ret
      | None -> Control.Halt);
  def o.Opcode.print_int (fun st _ _ _ ->
      R.print_int st (R.pop st);
      next)

let exec state : Vmbp_core.Engine.exec =
 fun program pc ->
  let slot = program.Program.code.(pc) in
  try table.(slot.Program.opcode) state program pc slot.Program.operands
  with R.Trap msg -> Control.Trap msg
