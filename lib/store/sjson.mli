(** The repo's line-oriented JSON dialect: one flat object per line, every
    field a scalar (string / int / float / bool / null).

    The store's record codec and the service protocol share it.  The writer side stays hand-rolled
    [Buffer]s at each call site (the objects differ); this module owns
    the two halves they all need: string escaping and the strict parser.
    The parser accepts exactly what the writers emit -- anything else
    raises {!Bad}, which callers turn into a counted skip or a protocol
    error, never a crash. *)

exception Bad

type v = S of string | I of int | F of float | B of bool | Null

val escape : string -> string
(** JSON string-body escaping: quote, backslash, and ASCII control
    characters (the latter as [\uXXXX]). *)

val parse_line : string -> (string * v) list
(** Parse one flat JSON object.  Integer-looking numbers come back as
    [I], anything with a fraction or exponent as [F].  Trailing
    whitespace is accepted; anything else trailing, or any nesting,
    raises {!Bad}. *)

val str : (string * v) list -> string -> string
(** Field accessors; all raise {!Bad} on a missing field or a kind
    mismatch ([num] accepts both [I] and [F]). *)

val int : (string * v) list -> string -> int
val num : (string * v) list -> string -> float
val bool : (string * v) list -> string -> bool
val str_opt : (string * v) list -> string -> string option
val int_opt : (string * v) list -> string -> int option
