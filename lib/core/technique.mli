(** The interpreter variants compared in the paper (Section 7.1).

    Static techniques fix the set of replicas and superinstructions at
    interpreter build time from a training profile; dynamic techniques copy
    executable code when the VM code is generated at run time
    (Section 5). *)

type parse_algo =
  | Greedy  (** maximum munch; the paper's default *)
  | Optimal  (** dynamic programming, minimum number of (super)instructions *)

type replica_strategy =
  | Round_robin  (** statically least-recently-used copy; paper's default *)
  | Random of int  (** uniformly random copy, with the given seed *)

type static_params = {
  replicas : int;  (** additional instruction copies to create *)
  superinstrs : int;  (** distinct superinstructions to create *)
  parse : parse_algo;
  strategy : replica_strategy;
  prefer_short : bool;
      (** weight sequence counts towards shorter sequences when selecting
          superinstructions (the paper's JVM heuristic) *)
}

val static_params :
  ?replicas:int ->
  ?superinstrs:int ->
  ?parse:parse_algo ->
  ?strategy:replica_strategy ->
  ?prefer_short:bool ->
  unit ->
  static_params
(** Defaults: no replicas, no superinstructions, greedy parse, round-robin
    selection, no short-sequence preference. *)

type t =
  | Switch  (** switch dispatch: one shared indirect branch (Figure 1) *)
  | Plain  (** threaded code; the baseline, speedup factor 1 (Figure 2) *)
  | Static of static_params
      (** static replication and/or superinstructions; covers the paper's
          [static repl], [static super] and [static both] by the counts in
          the parameters *)
  | Dynamic_repl  (** one code copy per VM instruction instance *)
  | Dynamic_super
      (** per-basic-block superinstructions, identical blocks shared
          (Piumarta and Riccardi 1998) *)
  | Dynamic_both  (** per-block superinstructions with replication *)
  | Across_bb
      (** dynamic superinstructions across basic blocks, with replication:
          dispatch only on taken VM branches, calls and returns *)
  | With_static_super of static_params
      (** static superinstructions folded into [Across_bb] code *)
  | With_static_across_bb of static_params
      (** JVM variant: static superinstructions may cross basic-block
          boundaries; side entries revert to non-replicated code
          (Figure 6) *)
  | Subroutine
      (** subroutine threading (Berndl et al. 2005, the paper's Section 8):
          a tiny JIT emits one native call per VM instruction, so dispatch
          executes no indirect branch at all; only taken VM-level control
          transfers remain BTB events, at the cost of call/return overhead
          on every instruction *)

(* Ready-made configurations matching the paper's variant list. *)

val switch : t
val plain : t
val static_repl : ?n:int -> unit -> t
(** [n] defaults to 400 replicas. *)

val static_super : ?n:int -> unit -> t
(** [n] defaults to 400 superinstructions. *)

val static_both : ?supers:int -> ?replicas:int -> unit -> t
(** Defaults to the paper's 35 superinstructions + 365 replicas. *)

val dynamic_repl : t
val dynamic_super : t
val dynamic_both : t
val across_bb : t
val with_static_super : ?n:int -> unit -> t
val with_static_across_bb : ?n:int -> unit -> t
val subroutine : t

val paper_gforth_variants : t list
(** The nine variants of Figures 7, 8 and 10-11, in figure order. *)

val paper_jvm_variants : t list
(** The nine variants of Figures 9 and 12-13, in figure order. *)

val name : t -> string
(** The paper's label for the variant, e.g. ["dynamic both"]. *)

val descriptor : t -> string
(** A parameter-complete identifier: two techniques are structurally equal
    exactly when their descriptors are equal (unlike {!name}, which
    collapses e.g. every replica count to ["static repl"]).  Stable across
    runs; used as part of the store's cell keys. *)

val of_name : string -> t option
(** Inverse of [name] for the built-in configurations; also accepts
    hyphenated spellings. *)

val uses_static_selection : t -> bool
(** Whether building the technique needs a training profile. *)

val is_dynamic : t -> bool
(** Whether the technique generates code at run time. *)
