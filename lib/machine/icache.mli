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
    the LRU clock and refreshes that line's recency stamp.  The per-event
    entry: live runs and the self-check audit (which [explain] is) fetch
    through it. *)

type lines
(** Decode-time line columns: one {!Slot_ranges.columns} read at one line
    size.  Per slot, every line its fetches touch, in {!Slot_ranges}'
    order (pre-dispatch, call stub, body), stored flat with per-slot start
    offsets, which are therefore also the prefix sum of the lines the
    slots touch.  They read the columns' own arrays, so after a quickening
    re-translates slots, {!fill_lines} from the first changed slot brings
    them up to date. *)

val lines : line_bytes:int -> Slot_ranges.columns -> lines
(** The line columns of [columns] at [line_bytes] (a power of two, else
    [Invalid_argument]): {!fill_lines} from slot 0 over fresh arrays. *)

val fill_lines : lines -> int -> unit
(** [fill_lines l from] re-decodes slots [from .. n-1] from the columns
    [l] was built over, in place; the flat line array grows only when the
    new lines do not fit.  Slots before [from] are kept as they are. *)

val lines_equal : lines -> lines -> bool
(** Same line size and the same per-slot lines.  The
    test oracle for {!fill_lines}: line columns repaired after a change
    to slots [k ..] must equal a fresh {!lines} of the changed columns. *)

val run_ranges :
  t ->
  Slot_ranges.t ->
  main:lines ->
  shadow:lines ->
  hits:int ref ->
  misses:int ref ->
  unit
(** Range kernel of a path walk: every fetch of the block's ranges, read
    from [main]'s or, for a shadow range, [shadow]'s line columns, which
    must have been built over the block's [main] and [shadow] columns at
    this cache's line size ([Invalid_argument] otherwise).  It counts a
    range's lines from the start offsets and touches only the lines that
    differ from the last one touched and from the last one touched in
    their set; such a repeat already holds its set's newest stamp and
    writes none, and the clock advances by the repeats once at the end of
    the call.  The result is the per-event loop's: the same counts,
    clock, residency and LRU order within every set as {!fetch} once for
    every fetch, in {!Slot_ranges}' order. *)

val clock : t -> int
(** Number of line accesses applied to the LRU recency clock so far.  For a
    finite cache this equals the total hits plus misses reported by [fetch];
    the invariant is what keeps hot lines from going stale in the eviction
    order, and what tests use to pin the memoized fast path to the memo-free
    reference behaviour.  Always [0] for the infinite cache. *)

val resident : t -> line:int -> bool
(** Whether the given line index currently occupies a way (always [true] for
    the infinite cache).  Exposed for tests and cache-content tooling. *)

val reset : t -> unit
