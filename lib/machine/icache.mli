(** Instruction-cache simulator.

    Code growth is the price of replication (Section 7.4): more executable
    copies mean more I-cache misses.  The engine reports every executed code
    range through [fetch]; the cache counts line misses, which the pipeline
    model converts into cycles.  A configuration with [size_bytes = 0]
    disables the cache (no misses), modelling an infinite I-cache. *)

type config = {
  size_bytes : int;  (** total capacity; [0] = infinite (never misses) *)
  line_bytes : int;  (** line size, a power of two *)
  associativity : int;  (** ways per set *)
}

val infinite : config

val make_config :
  size_bytes:int -> line_bytes:int -> associativity:int -> config
(** Validates that the geometry divides evenly. *)

val descriptor : config -> string
(** Canonical fingerprint ["icache(size,line,assoc)"] of the geometry.
    Distinct configurations produce distinct strings, so the string is a
    safe key for memo tables and store fingerprints; stable across runs
    (the store embeds it). *)

type t

(** Validates the geometry like {!make_config} (raising
    [Invalid_argument]), so configurations built as literal records are
    checked too. *)
val create : config -> t
val config : t -> config

val create_bank : config list -> (string * t) list
(** Fresh caches for the requested geometries, deduplicated by
    {!descriptor} in first-occurrence order -- the construction step of a
    banked replay, which drives all of them over one fetch stream.
    Geometries whose {!create} raises are dropped: the bank simulates the
    valid ones, and the per-cell path re-raises the error with cell context
    when the invalid geometry is actually used. *)

val fetch : t -> addr:int -> bytes:int -> hits:int ref -> misses:int ref -> unit
(** Touch every line overlapping [addr, addr+bytes); adds the line hit and
    miss counts into the given accumulators.  Every counted line access --
    including fast-path hits on the internally memoized last line -- advances
    the LRU clock and refreshes that line's recency stamp. *)

val run_ranges :
  t -> Slot_ranges.t -> hits:int ref -> misses:int ref -> unit
(** Range kernel of a path walk: {!fetch} once for every fetch of the
    block's ranges, in {!Slot_ranges}' order.  Same counts, same state,
    same clock and same observer calls as the per-event loop. *)

val clock : t -> int
(** Number of line accesses applied to the LRU recency clock so far.  For a
    finite cache this equals the total hits plus misses reported by [fetch];
    the invariant is what keeps hot lines from going stale in the eviction
    order, and what tests use to pin the memoized fast path to the memo-free
    reference behaviour.  Always [0] for the infinite cache. *)

val resident : t -> line:int -> bool
(** Whether the given line index currently occupies a way (always [true] for
    the infinite cache).  Exposed for tests and cache-content tooling. *)

val set_observer : t -> (line:int -> set:int -> evicted:int -> unit) option -> unit
(** Introspection hook, called once per line miss with the missing line,
    its set, and the line tag the allocation displaced ([-1] when the way
    was empty).  The infinite cache never misses, so it never calls the
    observer.  Absent (the default), the hook costs one match on the miss
    path and can never change a decision. *)

val reset : t -> unit
