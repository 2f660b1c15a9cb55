(** A block of slot ranges over per-slot event columns: the input of the
    simulators' range kernels ({!Btb.run_ranges}, {!Two_level.run_ranges},
    {!Case_block_table.run_ranges}, {!Predictor.run_ranges},
    {!Icache.run_ranges}).

    A {e range} is the program slots [lo .. hi] executed in order, where
    every slot before [hi] fell through to the next one.  Its events are a
    pure function of the per-slot columns: the dispatch that entered [lo]
    is stored beside the range, and every later slot [k] is entered by the
    fall-through dispatch of slot [k - 1].  Each slot [k] then contributes,
    in this order:
    - to the dispatch stream: the entering dispatch, from its branch to
      [entry.(k)] on [opcode.(k)], and, when [pre_addr.(k) >= 0], the
      pre-dispatch from [pre_addr.(k)] to [fetch_addr.(k)];
    - to the fetch stream: when [pre_addr.(k) >= 0], [dispatch_bytes]
      bytes at [entry.(k)]; when [call_bytes.(k) > 0], the call stub at
      [call_addr.(k)]; then [fetch_bytes.(k)] bytes at [fetch_addr.(k)].

    A dispatch out of slot [k] counts as a VM-level control transfer when
    [transfer.(k)] holds; pre-dispatches never do.  Branch addresses
    below 0 mean "no dispatch".  The arrays are the engine translation's
    own (see {!Vmbp_core.Engine.translation}), not copies, so a quickening
    that re-translates slots is seen by the next block. *)

type columns = {
  entry : int array;
  fetch_addr : int array;
  fetch_bytes : int array;
  opcode : int array;
  transfer : bool array;
  pre_addr : int array;  (** [-1] = no pre-dispatch *)
  fall_addr : int array;  (** [-1] = the slot falls through without one *)
  call_addr : int array;
  call_bytes : int array;  (** [0] = no call stub *)
  dispatch_bytes : int;  (** bytes fetched at [entry] before a pre-dispatch *)
}

type t = {
  main : columns;
  shadow : columns;
      (** the non-replicated fallback sites a shadow window runs through
          (the same record as [main] when the layout has none) *)
  lo : int array;
  hi : int array;
  enter : int array;  (** branch address of the dispatch into [lo]; [-1] = none *)
  enter_transfer : bool array;
  in_shadow : bool array;  (** the range reads [shadow] instead of [main] *)
  mutable len : int;  (** ranges [0 .. len - 1] are filled *)
}
(** Up to {!max_ranges} ranges, filled by the path walk
    ({!Vmbp_core.Path_walk}) and emptied after every configuration ran
    them. *)

val max_ranges : int
(** 1024. *)

val create : main:columns -> shadow:columns -> t
(** An empty block over the given column sets. *)
