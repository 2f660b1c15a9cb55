open Vmbp_vm

exception Trap of string

type klass = {
  k_id : int;
  k_name : string;
  k_super : int;
  k_nfields : int;
  k_offsets : (string, int) Hashtbl.t;
  k_vtable : int array;
}

type method_info = { mi_entry : int; mi_nargs : int; mi_nlocals : int }

type image = {
  classes : klass array;
  class_ids : (string, int) Hashtbl.t;
  methods : method_info array;
  static_method_ids : (string, int) Hashtbl.t;
  vindex_of_name : (string, int) Hashtbl.t;
  static_ids : (string, int) Hashtbl.t;
  cp : Classfile.cp_entry array;
  program : Program.t;
}

let link ~name ~classes ~methods ~cp ~code ~main =
  (* Global vtable-index assignment: one index per virtual method name. *)
  let vindex_of_name = Hashtbl.create 32 in
  List.iter
    (fun (m : Classfile.method_decl) ->
      if m.Classfile.m_is_virtual
         && not (Hashtbl.mem vindex_of_name m.Classfile.m_name)
      then Hashtbl.replace vindex_of_name m.Classfile.m_name
          (Hashtbl.length vindex_of_name))
    methods;
  let n_vnames = Hashtbl.length vindex_of_name in
  let method_arr =
    Array.of_list
      (List.map
         (fun (m : Classfile.method_decl) ->
           {
             mi_entry = m.Classfile.m_entry;
             mi_nargs = m.Classfile.m_nargs;
             mi_nlocals = m.Classfile.m_nlocals;
           })
         methods)
  in
  let static_method_ids = Hashtbl.create 32 in
  List.iteri
    (fun id (m : Classfile.method_decl) ->
      if not m.Classfile.m_is_virtual then
        Hashtbl.replace static_method_ids m.Classfile.m_name id)
    methods;
  (* Classes: parents must be linked before children.  Iterate to a fixed
     point so declaration order does not matter. *)
  let class_ids = Hashtbl.create 16 in
  let linked : klass option array = Array.make (List.length classes) None in
  let decls = Array.of_list classes in
  Array.iteri
    (fun i (c : Classfile.class_decl) ->
      if Hashtbl.mem class_ids c.Classfile.c_name then
        invalid_arg ("Runtime.link: duplicate class " ^ c.Classfile.c_name);
      Hashtbl.replace class_ids c.Classfile.c_name i)
    decls;
  let rec link_class i =
    match linked.(i) with
    | Some k -> k
    | None ->
        let c = decls.(i) in
        let super_id, super_nfields, super_vtable, super_offsets =
          match c.Classfile.c_super with
          | None -> (-1, 0, Array.make n_vnames (-1), [])
          | Some sname -> (
              match Hashtbl.find_opt class_ids sname with
              | None ->
                  invalid_arg ("Runtime.link: unknown superclass " ^ sname)
              | Some sid ->
                  let sk = link_class sid in
                  ( sid,
                    sk.k_nfields,
                    Array.copy sk.k_vtable,
                    Hashtbl.fold (fun f o acc -> (f, o) :: acc) sk.k_offsets []
                  ))
        in
        let offsets = Hashtbl.create 8 in
        List.iter (fun (f, o) -> Hashtbl.replace offsets f o) super_offsets;
        List.iteri
          (fun j f -> Hashtbl.replace offsets f (super_nfields + j))
          c.Classfile.c_fields;
        let vtable = super_vtable in
        List.iteri
          (fun id (m : Classfile.method_decl) ->
            if m.Classfile.m_is_virtual
               && m.Classfile.m_class = Some c.Classfile.c_name
            then
              vtable.(Hashtbl.find vindex_of_name m.Classfile.m_name) <- id)
          methods;
        let k =
          {
            k_id = i;
            k_name = c.Classfile.c_name;
            k_super = super_id;
            k_nfields = super_nfields + List.length c.Classfile.c_fields;
            k_offsets = offsets;
            k_vtable = vtable;
          }
        in
        linked.(i) <- Some k;
        k
  in
  let classes_arr = Array.init (Array.length decls) link_class in
  let static_ids = Hashtbl.create 16 in
  Array.iter
    (fun entry ->
      match entry with
      | Classfile.CP_static s ->
          if not (Hashtbl.mem static_ids s) then
            Hashtbl.replace static_ids s (Hashtbl.length static_ids)
      | _ -> ())
    cp;
  let main_id =
    match Hashtbl.find_opt static_method_ids main with
    | Some id -> id
    | None -> invalid_arg ("Runtime.link: no main method " ^ main)
  in
  let entries = Array.to_list (Array.map (fun m -> m.mi_entry) method_arr) in
  let program =
    Program.make ~name ~iset:Opcode.iset ~code
      ~entry:method_arr.(main_id).mi_entry ~entries ()
  in
  {
    classes = classes_arr;
    class_ids;
    methods = method_arr;
    static_method_ids;
    vindex_of_name;
    static_ids;
    cp;
    program;
  }

(* ------------------------------------------------------------------ *)

type state = {
  image : image;
  mutable obj_cls : int array;  (* class id per object; -1 = int array *)
  mutable obj_fields : int array array;
  mutable heap_count : int;
  stack : int array;
  mutable sp : int;
  mutable locals : int array;
  saved_locals : int array array;
  saved_ret : int array;
  mutable fsp : int;
  statics : int array;
  out : Buffer.t;
}

let create image =
  let main_id = Hashtbl.find image.static_method_ids "main" in
  let main = image.methods.(main_id) in
  {
    image;
    obj_cls = Array.make 1024 (-2);
    obj_fields = Array.make 1024 [||];
    heap_count = 0;
    stack = Array.make 8192 0;
    sp = 0;
    locals = Array.make (max 1 main.mi_nlocals) 0;
    saved_locals = Array.make 4096 [||];
    saved_ret = Array.make 4096 0;
    fsp = 0;
    statics = Array.make (max 1 (Hashtbl.length image.static_ids)) 0;
    out = Buffer.create 256;
  }

let image st = st.image
let output st = Buffer.contents st.out
let heap_objects st = st.heap_count

let push st v =
  if st.sp >= Array.length st.stack then raise (Trap "operand stack overflow");
  st.stack.(st.sp) <- v;
  st.sp <- st.sp + 1

let pop st =
  if st.sp = 0 then raise (Trap "operand stack underflow");
  st.sp <- st.sp - 1;
  st.stack.(st.sp)

let peek st n =
  if n < 0 || n >= st.sp then raise (Trap "operand stack peek out of range");
  st.stack.(st.sp - 1 - n)

let grow_heap st =
  let cap = Array.length st.obj_cls in
  if st.heap_count >= cap then begin
    let cls = Array.make (2 * cap) (-2) in
    let fields = Array.make (2 * cap) [||] in
    Array.blit st.obj_cls 0 cls 0 cap;
    Array.blit st.obj_fields 0 fields 0 cap;
    st.obj_cls <- cls;
    st.obj_fields <- fields
  end

(* Allocation and index guards below exist for loaded (possibly hostile)
   images: quickened opcodes carry raw class/method/cell indices in their
   operands, so a mutated image can present any integer here.  Out-of-range
   values must become clean traps, never [Invalid_argument] escaping the
   interpreter. *)

let max_array_len = 1 lsl 24

let alloc_object st ~cls =
  if cls < 0 || cls >= Array.length st.image.classes then
    raise (Trap "bad class id");
  grow_heap st;
  let id = st.heap_count in
  st.obj_cls.(id) <- cls;
  let nfields = st.image.classes.(cls).k_nfields in
  (* Int comparisons, not [Stdlib.max]: that one is polymorphic, and this
     runs on every [new] (and [push_frame] on every invoke). *)
  st.obj_fields.(id) <- Array.make (if nfields > 1 then nfields else 1) 0;
  st.heap_count <- id + 1;
  id + 1

let alloc_array st ~len =
  if len < 0 then raise (Trap "negative array size");
  if len > max_array_len then raise (Trap "array size out of range");
  grow_heap st;
  let id = st.heap_count in
  st.obj_cls.(id) <- -1;
  st.obj_fields.(id) <- Array.make len 0;
  st.heap_count <- id + 1;
  id + 1

let deref st ref_ =
  if ref_ = 0 then raise (Trap "null pointer");
  let id = ref_ - 1 in
  if id < 0 || id >= st.heap_count then raise (Trap "dangling reference");
  id

let obj_class st ref_ = st.obj_cls.(deref st ref_)

let get_field st ~ref_ ~off =
  let fields = st.obj_fields.(deref st ref_) in
  if off < 0 || off >= Array.length fields then raise (Trap "bad field offset");
  fields.(off)

let set_field st ~ref_ ~off ~v =
  let fields = st.obj_fields.(deref st ref_) in
  if off < 0 || off >= Array.length fields then raise (Trap "bad field offset");
  fields.(off) <- v

let array_get st ~ref_ ~idx =
  let elems = st.obj_fields.(deref st ref_) in
  if idx < 0 || idx >= Array.length elems then
    raise (Trap "array index out of bounds");
  elems.(idx)

let array_set st ~ref_ ~idx ~v =
  let elems = st.obj_fields.(deref st ref_) in
  if idx < 0 || idx >= Array.length elems then
    raise (Trap "array index out of bounds");
  elems.(idx) <- v

let array_length st ref_ = Array.length st.obj_fields.(deref st ref_)

let get_static st i =
  if i < 0 || i >= Array.length st.statics then raise (Trap "bad static cell");
  st.statics.(i)

let set_static st i v =
  if i < 0 || i >= Array.length st.statics then raise (Trap "bad static cell");
  st.statics.(i) <- v

let local st i =
  if i < 0 || i >= Array.length st.locals then raise (Trap "bad local index");
  st.locals.(i)

let set_local st i v =
  if i < 0 || i >= Array.length st.locals then raise (Trap "bad local index");
  st.locals.(i) <- v

let max_frame_locals = 65536

let push_frame st ~nargs ~nlocals ~ret =
  if nargs < 0 || nlocals < 0 || nlocals > max_frame_locals then
    raise (Trap "bad frame geometry");
  if st.fsp >= Array.length st.saved_ret then raise (Trap "frame stack overflow");
  st.saved_locals.(st.fsp) <- st.locals;
  st.saved_ret.(st.fsp) <- ret;
  st.fsp <- st.fsp + 1;
  let locals = Array.make (if nlocals > 1 then nlocals else 1) 0 in
  for i = nargs - 1 downto 0 do
    locals.(i) <- pop st
  done;
  st.locals <- locals

let pop_frame st =
  if st.fsp = 0 then None
  else begin
    st.fsp <- st.fsp - 1;
    st.locals <- st.saved_locals.(st.fsp);
    Some (st.saved_ret.(st.fsp))
  end

let print_int st v =
  Buffer.add_string st.out (string_of_int v);
  Buffer.add_char st.out ' '
