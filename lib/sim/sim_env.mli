(** A deterministic simulated world behind {!Env.t}.

    One OCaml thread runs everything: the service's event loop pumps the
    simulation through its [select], which advances a virtual clock to
    the next scheduled event instead of sleeping.  All nondeterminism --
    message latency, write atomicity, crash timing -- comes from one
    seeded stream, so a schedule replays bit-for-bit from its seed. *)

type t

exception Crashed
(** Raised from the simulated [select] once a process crash has been
    triggered: the snapshot of surviving bytes was taken at the crash
    instant, and this unwinds the server loop so the driver can
    {!restart} the world and start a fresh [serve]. *)

exception Stalled
(** The select cap was exceeded: the event loop is spinning or the
    schedule never drains -- a liveness (deadlock/livelock) failure. *)

val create : ?select_cap:int -> seed:int -> unit -> t
(** A fresh world.  [select_cap] (default 500k) bounds event-loop
    iterations per schedule as the virtual-time liveness check. *)

val env : t -> Env.t
(** The {!Env.t} to install in {!Env.current} while the schedule runs. *)

val now : t -> float
(** Current virtual time (starts at 0). *)

val at : t -> float -> (unit -> unit) -> unit
(** Schedule a callback at an absolute virtual time (clamped to strictly
    after [now] so a callback scheduling itself cannot wedge the
    event pump). *)

val after : t -> float -> (unit -> unit) -> unit

(** {2 Seeded stream} *)

val rand_float : t -> float
(** Uniform in [\[0,1)], from the schedule's seeded stream. *)

val rand_int : t -> int -> int
(** Uniform in [\[0,n)]. *)

(** {2 Crash and restart} *)

val crash_at : t -> float -> unit
(** Power-cut the whole process at a virtual time. *)

val crash_after_writes : t -> int -> unit
(** Power-cut during the [n]th subsequent file write: a seeded prefix of
    that write's bytes reaches the disk image, then the machine dies --
    the torn-tail case timed crashes cannot reach under an
    append-then-fsync discipline. *)

val crashes : t -> int
(** Crashes triggered so far in this world. *)

val in_crash : t -> bool
(** [true] between a crash trigger and the matching {!restart}.  The
    server loop usually unwinds via {!Crashed}, but if the crash lands
    after its final drain it can return normally with the world still
    down -- drivers must check this and restart anyway. *)

val restart : t -> unit
(** Replace the live filesystem with the power-cut image (synced
    prefixes plus seeded surviving suffixes, un-fsynced directory
    operations rolled back), drop all dead server-side objects, and
    reset the pool so a fresh [serve] can start. *)

(** {2 Simulated clients} *)

type conn
(** The client endpoint of a simulated connection. *)

val client_connect : t -> string -> (conn, Unix.error) result
(** Connect to a listening path; [Error ECONNREFUSED] if nothing
    listens (e.g. the server is between crash and restart). *)

val on_conn_event : t -> conn -> (string option -> unit) -> unit
(** Install the delivery callback: [Some bytes] per arriving chunk,
    [None] once on EOF.  Anything that arrived earlier is delivered
    immediately. *)

val client_send : t -> conn -> string -> unit
val client_close : t -> conn -> unit

(** {2 Introspection and knobs} *)

val selects : t -> int
val set_short_write_p : t -> float -> unit

val tracef : t -> ('a, unit, string, unit) format4 -> 'a
(** Append a line to the schedule trace (capped; prefixed with virtual
    time).  The driver dumps this on a failing seed. *)

val trace_contents : t -> string
