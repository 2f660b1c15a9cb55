(** Case block table (Kaeli and Emma 1994, 1997).

    A history-based predictor designed for switch statements: the target
    table is indexed by the switch operand -- for a VM interpreter, the
    opcode of the next VM instruction -- rather than by the branch address.
    This gives near-perfect prediction for a switch-based interpreter
    because the opcode determines the target exactly (Section 8). *)

type t

val create : entries:int -> t
(** [entries] must be a positive power of two. *)

val descriptor : entries:int -> string
(** Canonical fingerprint ["caseblock(entries)"] of the configuration;
    distinct entry counts produce distinct strings.  Stable across runs --
    the store embeds it. *)

val access : t -> opcode:int -> target:int -> bool
(** Predict the target for the dispatch on [opcode] and train the table;
    returns [true] on a correct prediction. *)

val run_ranges : t -> Slot_ranges.t -> mis:int ref -> vm_mis:int ref -> unit
(** Range kernel of a path walk, with {!Btb.run_ranges}' contract, except
    that each dispatch is keyed on the opcode of the slot it enters. *)
