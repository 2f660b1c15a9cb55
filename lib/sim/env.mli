(** The environment seam for deterministic simulation testing.

    Every effect the report service performs -- clock reads, sleeps,
    socket ops, store file I/O, compute-pool hand-off -- goes
    through one {!t} record of closures.  {!real} binds them to the
    operating system exactly as the pre-seam code did, so production
    behavior is byte-for-byte unchanged; {!Sim_env} binds them to a
    single-threaded simulated world with a virtual clock, seeded message
    delays, a filesystem that models torn writes / short writes /
    power-cut-at-any-point, and whole-process crash/restart -- so
    thousands of distinct interleavings run per second and any failure
    replays exactly from its seed. *)

external monotonic_now : unit -> float = "vmbp_monotonic_now"
(** CLOCK_MONOTONIC seconds.  The base is arbitrary (boot time on
    Linux); only differences are meaningful. *)

type fd = Real of Unix.file_descr | Sim of int
(** File descriptors are opaque handles: real ones wrap the kernel's,
    simulated ones index the simulation's object table.  Both preserve
    physical identity through {!t.select}, so [List.memq] works on the
    returned lists. *)

type pool = {
  kick : unit -> unit;
      (** Notify the pool that work was enqueued.  No-op in the real
          env (the condition variable already woke the domain); the sim
          schedules a compute step a seeded latency later. *)
  join : unit -> unit;
      (** Wait for the pool to consume a stop job and finish.  A stop
          job must already be enqueued. *)
}

type t = {
  name : string;
  now : unit -> float;  (** monotonic; durations and deadlines only *)
  sleep : float -> unit;
  openfile : string -> Unix.open_flag list -> int -> fd;
  read : fd -> bytes -> int -> int -> int;
      (** Single-attempt, syscall-shaped: may be short, raises
          [Unix.Unix_error] (EAGAIN on a drained non-blocking fd). *)
  write : fd -> string -> int -> int -> int;
      (** Single-attempt substring write; may be short. *)
  fsync : fd -> unit;
  close : fd -> unit;
  rename : string -> string -> unit;
  unlink : string -> unit;
  mkdir : string -> int -> unit;
  rmdir : string -> unit;  (** Remove an empty directory. *)
  readdir : string -> string array;
  file_exists : string -> bool;
  read_file : string -> string option;
      (** Whole contents, [None] if the file does not exist. *)
  fsync_dir : string -> unit;
      (** Make renames/creates in the directory durable; never raises
          (some filesystems refuse directory fsync). *)
  listen : string -> backlog:int -> fd;
      (** Bind a Unix-domain path; the returned listener and every fd
          {!t.accept} yields are non-blocking.  The path must be missing
          or a stale socket (one that refuses a connect), which the real
          env replaces; anything else raises [EADDRINUSE] naming the
          path and leaves it untouched. *)
  accept : fd -> fd option;  (** [None] on EAGAIN. *)
  select : fd list -> fd list -> float -> fd list * fd list;
  pipe : unit -> fd * fd;  (** read end non-blocking *)
  spawn_compute : (block:bool -> [ `Idle | `Ran | `Stop ]) -> pool;
      (** Start the compute pool around a step function: [step
          ~block:true] blocks for work (real domain), [~block:false]
          polls (simulated).  [`Stop] means a stop job was consumed. *)
  defer_done : (unit -> unit) -> unit;
      (** How a compute step publishes results.  Real: run immediately
          (the pre-seam ordering).  Sim: schedule a seeded virtual
          latency later, so the event loop observes the busy window a
          separate compute domain would produce. *)
}

val real : t

val current : t ref
(** The process-wide environment, [real] by default.  {!Vmbp_store}
    and the service capture it at open/start time; a
    simulation installs its env around a schedule and restores [real]
    after. *)

val now : unit -> float
(** [(!current).now ()]: the one clock of spans and flight-recorder
    entries, and of the load generator's and [top]'s timings. *)

val missing_dirs : t -> string -> string list
(** The directories, [dir] included, that {!mkdir_p} would create for
    [dir]: every missing one, outermost first. *)

val mkdir_p : t -> string -> unit

val lines_of_contents : string -> string list
(** Split file contents the way [input_line] would: on ['\n'], with no
    final empty line for a trailing newline. *)
