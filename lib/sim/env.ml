(* The environment seam for deterministic simulation testing.

   Every effect the report service performs -- clock reads, sleeps,
   socket ops, store file I/O, compute-pool hand-off -- goes
   through one record of closures.  [real] binds them to the operating
   system exactly as the pre-seam code did; {!Sim_env} binds them to a
   single-threaded simulated world with a virtual clock, a faulty
   filesystem and seeded crash schedules, so whole-system interleavings
   replay bit-for-bit from a seed. *)

external monotonic_now : unit -> float = "vmbp_monotonic_now"

type fd = Real of Unix.file_descr | Sim of int

type pool = {
  kick : unit -> unit;
      (* New work was enqueued.  The real pool wakes via its condition
         variable, so this is a no-op there; the simulated pool schedules
         a compute step. *)
  join : unit -> unit;
      (* Wait for the pool to observe a stop job and finish. *)
}

type t = {
  name : string;
  now : unit -> float;  (* monotonic: durations and deadlines only *)
  sleep : float -> unit;
  (* Files.  [read]/[write] are single-attempt syscall-shaped calls:
     they may be short and raise [Unix.Unix_error]. *)
  openfile : string -> Unix.open_flag list -> int -> fd;
  read : fd -> bytes -> int -> int -> int;
  write : fd -> string -> int -> int -> int;
  fsync : fd -> unit;
  close : fd -> unit;
  rename : string -> string -> unit;
  unlink : string -> unit;
  mkdir : string -> int -> unit;
  rmdir : string -> unit;  (* an empty directory *)
  readdir : string -> string array;
  file_exists : string -> bool;
  read_file : string -> string option;  (* whole contents; None if absent *)
  fsync_dir : string -> unit;
  (* Sockets.  [listen] binds a Unix-domain path and returns a
     non-blocking listener; [accept] returns [None] instead of raising
     on EAGAIN; accepted fds are non-blocking. *)
  listen : string -> backlog:int -> fd;
  accept : fd -> fd option;
  select : fd list -> fd list -> float -> fd list * fd list;
  pipe : unit -> fd * fd;  (* read end non-blocking *)
  (* Compute pool.  [spawn_compute step] starts a worker that repeatedly
     calls [step]; the step function reports [`Stop] once it has consumed
     a stop job.  [defer_done] is how a compute step publishes its
     results: the real pool runs the closure immediately (preserving the
     pre-seam ordering byte-for-byte), the simulated pool schedules it a
     seeded virtual latency later so the event loop observes a busy
     window. *)
  spawn_compute : (block:bool -> [ `Idle | `Ran | `Stop ]) -> pool;
  defer_done : (unit -> unit) -> unit;
}

(* ------------------------------------------------------------------ *)
(* The real environment: today's behavior, verbatim. *)

let unwrap = function
  | Real fd -> fd
  | Sim _ -> invalid_arg "Env.real: simulated fd passed to the real env"

let real =
  let openfile path flags perm = Real (Unix.openfile path flags perm) in
  let read fd buf off len = Unix.read (unwrap fd) buf off len in
  let write fd s off len = Unix.write_substring (unwrap fd) s off len in
  let read_file path =
    match open_in_bin path with
    | exception Sys_error _ -> None
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Some (really_input_string ic (in_channel_length ic)))
  in
  (* A socket that refuses a connect was left by a daemon that died
     without unlinking it.  Any other file, a live daemon's socket
     included, is not this daemon's to take. *)
  let stale path =
    (Unix.lstat path).Unix.st_kind = Unix.S_SOCK
    &&
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> false
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true)
  in
  let listen path ~backlog =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* [bind] names no path in its error; a refused socket path must. *)
    (try
       (try Unix.bind fd (Unix.ADDR_UNIX path)
        with Unix.Unix_error (Unix.EADDRINUSE, _, _) as e ->
          if not (stale path) then raise e;
          Unix.unlink path;
          Unix.bind fd (Unix.ADDR_UNIX path));
       Unix.listen fd backlog
     with Unix.Unix_error (e, fn, _) ->
       Unix.close fd;
       raise (Unix.Unix_error (e, fn, path)));
    Unix.set_nonblock fd;
    Real fd
  in
  let rec accept fd =
    match Unix.accept (unwrap fd) with
    | c, _ ->
        Unix.set_nonblock c;
        Some (Real c)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        None
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept fd
    | exception Unix.Unix_error _ -> None
  in
  let select rfds wfds timeout =
    let r, w, _ =
      Unix.select (List.map unwrap rfds) (List.map unwrap wfds) [] timeout
    in
    (* Filter the caller's lists so the returned elements are physically
       the fds the caller passed in ([List.memq] downstream). *)
    ( List.filter (fun fd -> List.mem (unwrap fd) r) rfds,
      List.filter (fun fd -> List.mem (unwrap fd) w) wfds )
  in
  let pipe () =
    let r, w = Unix.pipe () in
    Unix.set_nonblock r;
    (Real r, Real w)
  in
  let spawn_compute step =
    let d =
      Domain.spawn (fun () ->
          let rec go () =
            match step ~block:true with `Stop -> () | `Ran | `Idle -> go ()
          in
          go ())
    in
    { kick = (fun () -> ()); join = (fun () -> Domain.join d) }
  in
  {
    name = "real";
    now = monotonic_now;
    sleep = Unix.sleepf;
    openfile;
    read;
    write;
    fsync = (fun fd -> Unix.fsync (unwrap fd));
    close = (fun fd -> Unix.close (unwrap fd));
    rename = Unix.rename;
    unlink = Unix.unlink;
    mkdir = Unix.mkdir;
    rmdir = Unix.rmdir;
    readdir = Sys.readdir;
    file_exists = Sys.file_exists;
    read_file;
    fsync_dir =
      (fun dir ->
        (* Some filesystems refuse fsync on a directory; not fatal. *)
        match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
        | exception Unix.Unix_error _ -> ()
        | fd ->
            (try Unix.fsync fd with Unix.Unix_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ()));
    listen;
    accept;
    select;
    pipe;
    spawn_compute;
    defer_done = (fun f -> f ());
  }

(* The process-wide environment.  {!Store} and the service capture it
   when they open/start, so a simulation installs its env, runs, and
   restores [real]. *)
let current = ref real

let now () = !current.now ()

let missing_dirs (env : t) dir =
  let rec go d acc =
    if d = "/" || d = "." || env.file_exists d then acc
    else go (Filename.dirname d) (d :: acc)
  in
  go dir []

let mkdir_p (env : t) dir =
  List.iter
    (fun d ->
      try env.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    (missing_dirs env dir)

(* [input_line] semantics over a whole file: split on '\n'; a trailing
   newline does not produce a final empty line. *)
let lines_of_contents s =
  match String.split_on_char '\n' s with
  | [] -> []
  | parts -> (
      match List.rev parts with
      | "" :: rest -> List.rev rest
      | _ -> parts)
