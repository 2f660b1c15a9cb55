(** Class, method and constant-pool declarations of the mini-JVM.

    These are the symbolic, unresolved structures the front end produces;
    {!Runtime} links them into an executable image, and the quickable
    instructions resolve constant-pool entries lazily at run time
    (Section 5.4). *)

type cp_entry =
  | CP_int of int  (** an [ldc] constant *)
  | CP_field of { cls : string; field : string }
  | CP_static of string  (** global variable name *)
  | CP_method of string  (** static method name *)
  | CP_virtual of string  (** virtual method name *)
  | CP_class of string
  | CP_switch of { lo : int; targets : int array }
      (** jump table of a [tableswitch]: [targets.(0)] is the default,
          [targets.(k+1)] the target for key [lo + k].  The array is filled
          in by the code generator as case labels resolve. *)

type method_decl = {
  m_name : string;
  m_is_virtual : bool;
  m_class : string option;  (** defining class for virtual methods *)
  m_nargs : int;  (** parameters, including the receiver if virtual *)
  m_nlocals : int;  (** total locals, including parameters *)
  m_entry : int;  (** first VM code slot *)
}

type class_decl = {
  c_name : string;
  c_super : string option;
  c_fields : string list;  (** newly declared fields, in offset order *)
}
