(** Linking and run-time state of the mini-JVM.

    [link] resolves class declarations into a class table with field
    offsets and virtual-method tables (a global name-to-index assignment
    keeps vtable indices consistent across the hierarchy, so an
    [invokevirtual_quick] operand is valid for any receiver).  [state]
    holds the heap, the shared operand stack, the frame stack, the statics
    and the captured output. *)

exception Trap of string

type klass = {
  k_id : int;
  k_name : string;
  k_super : int;  (** class id, or -1 *)
  k_nfields : int;  (** including inherited fields *)
  k_offsets : (string, int) Hashtbl.t;  (** field name -> offset *)
  k_vtable : int array;  (** vtable index -> method id, or -1 *)
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
  program : Vmbp_vm.Program.t;
}

val link :
  name:string ->
  classes:Classfile.class_decl list ->
  methods:Classfile.method_decl list ->
  cp:Classfile.cp_entry array ->
  code:Vmbp_vm.Program.slot array ->
  main:string ->
  image
(** Build an image.  All method entries become program entry points.
    @raise Invalid_argument on unknown classes or a missing [main]. *)

type state

val create : image -> state
val image : state -> image
val output : state -> string
val heap_objects : state -> int
(** Number of allocated objects/arrays, for tests. *)

(* Operations used by the instruction semantics. *)

val push : state -> int -> unit
val pop : state -> int
val peek : state -> int -> int
(** [peek st n]: the [n]-th stack cell from the top. *)

val alloc_object : state -> cls:int -> int
(** Returns a non-zero reference. *)

val alloc_array : state -> len:int -> int
val obj_class : state -> int -> int
val get_field : state -> ref_:int -> off:int -> int
val set_field : state -> ref_:int -> off:int -> v:int -> unit
val array_get : state -> ref_:int -> idx:int -> int
val array_set : state -> ref_:int -> idx:int -> v:int -> unit
val array_length : state -> int -> int
val get_static : state -> int -> int
val set_static : state -> int -> int -> unit
val local : state -> int -> int
val set_local : state -> int -> int -> unit

val push_frame : state -> nargs:int -> nlocals:int -> ret:int -> unit
(** Pops [nargs] values off the operand stack into the new frame's first
    locals (in declaration order) and saves the current frame. *)

val pop_frame : state -> int option
(** Restore the caller frame; [None] when the outermost frame returns. *)

val print_int : state -> int -> unit
