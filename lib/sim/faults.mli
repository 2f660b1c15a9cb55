(** Deterministic fault injection for the report runner, the store and
    the service.

    Robustness code that is never executed is robustness on inspection only,
    so every supervision path of the report runner
    ({!Vmbp_report.Par_runner}) -- record fallback, dropped store appends,
    stopping on a worker death -- has a named injection point here, driven
    by the [--chaos SPEC] command-line flag.  Injection
    is deterministic: count-based specs fire on exact opportunity ordinals
    and probabilistic specs draw from a seeded splitmix64 stream, so a chaos
    run is reproducible bit-for-bit given the same spec (and, for
    probabilistic specs, the same cell arrival order).

    Spec grammar (comma-separated [name=value] pairs):

    - [POINT=N] -- fire on the first [N] opportunities of [POINT].
    - [POINT=S+N] -- skip the first [S] opportunities, then fire [N] times
      (how tests kill a run mid-way: [worker-death=2+1]).
    - [POINT=P] with [0 < P < 1] (a float) -- fire each opportunity with
      probability [P], drawn from the seeded stream.
    - [POINT=...@DUR] -- timed points ([slow-client], [pool-wedge])
      additionally stall [DUR] seconds per fire (defaults 0.2 / 0.5).
    - [seed=N] -- seed for the probabilistic stream.

    Points: [record-fail] (failure after a group walk; the group must
    degrade to per-cell live runs),
    [worker-death] (a worker domain dies, standing in for a killed
    process: the run stops at any job count and resumes from its store).

    Service-side points, fired by {!Vmbp_service.Service} and the store
    ({!Vmbp_store.Store.append}): [conn-drop] (the server
    drops a client connection mid-exchange; clients must reconnect and
    retry), [store-io] (a store append is dropped like a disk error; the
    reply still serves from memory), [slow-client] (the server treats the
    connection as a stalled reader; exercises the slow-reader timeout),
    [pool-wedge] (holds a batch in flight; exercises coalescing,
    admission and drain while the compute pool is busy). *)

type point =
  | Record_fail
  | Worker_death
  | Conn_drop
  | Store_io
  | Slow_client
  | Pool_wedge

exception Injected of string
(** A deliberately injected failure ([record-fail]); the group guard
    degrades the group to per-cell live runs, as it does for any exception
    from a group walk. *)

exception Worker_killed
(** Injected worker death.  Raised before a group starts, outside the
    per-cell and per-group guards: it escapes to the pool, which stops the
    run and re-raises it out of [run_cells] once every worker is joined. *)

val configure : string -> (unit, string) result
(** Parse a [--chaos] spec and arm the listed points, replacing any previous
    configuration.  [Error msg] on a malformed spec. *)

val reset : unit -> unit
(** Disarm every point and zero all counters; restores the default
    (injection-free) state.  Used by tests between cases. *)

val armed : unit -> bool
(** Whether any point is currently armed. *)

val fired : point -> int
(** How many times [point] has fired since the last [reset]/[configure]. *)

val total_injected : unit -> int
(** Total fires across all points, for the JSON summary. *)

val record_fail : unit -> unit
(** Raise {!Injected} if the [record-fail] point fires. *)

val worker_death : unit -> unit
(** Raise {!Worker_killed} if the [worker-death] point fires. *)

val conn_drop : unit -> bool
(** Whether the [conn-drop] point fires; the caller closes the
    connection. *)

val store_io : unit -> bool
(** Whether the [store-io] point fires; {!Vmbp_store.Store.append} asks
    before each write and drops the append when it does. *)

val slow_client : unit -> float option
(** [Some stall_seconds] if the [slow-client] point fires. *)

val pool_wedge : unit -> float option
(** [Some wedge_seconds] if the [pool-wedge] point fires. *)

val duration : point -> float
(** The configured per-fire stall for a timed point ([slow-client],
    [pool-wedge]); 0 for the rest. *)
