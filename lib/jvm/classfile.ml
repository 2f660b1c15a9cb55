type cp_entry =
  | CP_int of int
  | CP_field of { cls : string; field : string }
  | CP_static of string
  | CP_method of string
  | CP_virtual of string
  | CP_class of string
  | CP_switch of { lo : int; targets : int array }

type method_decl = {
  m_name : string;
  m_is_virtual : bool;
  m_class : string option;
  m_nargs : int;
  m_nlocals : int;
  m_entry : int;
}

type class_decl = {
  c_name : string;
  c_super : string option;
  c_fields : string list;
}
