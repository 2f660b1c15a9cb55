(* A deterministic simulated world behind {!Env.t}.

   One OCaml thread runs everything: the service's event loop pumps the
   simulation through [select], which advances a virtual clock to the
   next scheduled event instead of sleeping.  Everything nondeterministic
   in the real world -- message latency, write atomicity, crash timing --
   is drawn from one seeded splitmix64 stream, so a schedule replays
   bit-for-bit from its seed.

   Fault model:

   - Filesystem: writes land in an in-memory unsynced suffix until
     [fsync] merges them into the synced prefix.  A power cut keeps the
     synced prefix plus a seeded prefix of the unsynced bytes (torn
     tail); writes may be short; directory operations (create, rename,
     remove) are pending until [fsync_dir] and roll back at a crash,
     which is exactly the failure the store's rename-then-dir-fsync
     discipline exists to prevent.
   - Sockets: in-memory duplex pairs with seeded per-chunk delays
     (FIFO per direction), seeded short writes, and severed connections
     on crash.
   - Process crash: either at a scheduled virtual time or on the Nth
     file-write opportunity (a power cut mid-append).  The snapshot is
     taken at the crash instant; the doomed process keeps running until
     the next [select], but its writes are discarded and [Crashed] then
     unwinds the server so the driver can restart it on the surviving
     filesystem image. *)

exception Crashed
exception Stalled

(* ------------------------------------------------------------------ *)

type inode = { mutable synced : string; unsynced : Buffer.t }

type dirop =
  | Op_create of string
  | Op_rename of {
      r_src : string;
      r_dst : string;
      moved : inode;
      displaced : inode option;
    }
  | Op_remove of { rm_path : string; removed : inode }

type conn = {
  conn_id : int;
  mutable to_server : string;  (* delivered, not yet read by the server *)
  mutable server_eof : bool;  (* client closed, all bytes delivered *)
  mutable server_alive : bool;
  mutable client_alive : bool;
  mutable client_cb : (string option -> unit) option;
  mutable client_pending : string;
  mutable client_eof_pending : bool;
  mutable client_eof_sent : bool;
  mutable in_pump : bool;
  mutable arr_to_server : float;  (* per-direction FIFO floors *)
  mutable arr_to_client : float;
}

type pipe = { mutable p_pending : int; mutable p_closed : bool }

type obj =
  | O_file of { f_path : string; f_inode : inode; mutable f_closed : bool }
  | O_listener of { l_path : string; l_queue : conn Queue.t }
  | O_sock of conn
  | O_pipe_r of pipe
  | O_pipe_w of pipe

type t = {
  seed : int;
  rng : Splitmix.t;
  mutable vnow : float;
  mutable events : (float * int * (unit -> unit)) list;  (* time-sorted *)
  mutable eseq : int;
  objs : (int, obj) Hashtbl.t;
  mutable next_fd : int;
  mutable entries : (string, inode) Hashtbl.t;
  dirs : (string, unit) Hashtbl.t;
  mutable pending_dirops : dirop list;  (* newest first *)
  listeners : (string, conn Queue.t) Hashtbl.t;
  mutable conn_next : int;
  (* crash machinery *)
  mutable crashed : bool;
  mutable crash_pending : bool;
  mutable post_crash : (string, inode) Hashtbl.t option;
  mutable op_crash : int option;
  mutable crash_count : int;
  (* knobs *)
  mutable short_write_p : float;
  mutable net_delay_base : float;
  mutable net_delay_spread : float;
  (* progress accounting *)
  mutable selects : int;
  mutable select_cap : int;
  trace : Buffer.t;
  (* simulated compute pool *)
  mutable pool_step : (block:bool -> [ `Idle | `Ran | `Stop ]) option;
  mutable pool_gen : int;
  mutable pool_running : bool;
  mutable pool_stopped : bool;
  mutable pool_kick_pending : bool;
  mutable in_pool : bool;
  mutable pool_delay : float;
  mutable pool_outstanding : int;
  mutable pool_last_arrival : float;
  mutable env : Env.t;  (* backpatched by [create] *)
}

(* ------------------------------------------------------------------ *)
(* Seeded stream *)

let rand_float t = Splitmix.float t.rng

let rand_int t n = if n <= 0 then 0 else int_of_float (rand_float t *. float_of_int n)

let net_delay t = t.net_delay_base +. (rand_float t *. t.net_delay_spread)

(* ------------------------------------------------------------------ *)
(* Trace + scheduler *)

let tracef t fmt =
  Printf.ksprintf
    (fun s ->
      if Buffer.length t.trace < 2_000_000 then begin
        Buffer.add_string t.trace (Printf.sprintf "[%10.4f] %s\n" t.vnow s)
      end)
    fmt

let trace_contents t = Buffer.contents t.trace

let now t = t.vnow

let at t time f =
  let time = if time <= t.vnow then t.vnow +. 1e-6 else time in
  t.eseq <- t.eseq + 1;
  let ev = (time, t.eseq, f) in
  let rec ins = function
    | [] -> [ ev ]
    | ((t', s', _) as hd) :: tl ->
        if time < t' || (time = t' && t.eseq < s') then ev :: hd :: tl
        else hd :: ins tl
  in
  t.events <- ins t.events

let after t d f = at t (t.vnow +. d) f

let rec fire_due t =
  match t.events with
  | (time, _, f) :: rest when time <= t.vnow ->
      t.events <- rest;
      f ();
      fire_due t
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Filesystem *)

let inode_make () = { synced = ""; unsynced = Buffer.create 64 }

let inode_contents ino = ino.synced ^ Buffer.contents ino.unsynced

let file_exists t p = Hashtbl.mem t.entries p || Hashtbl.mem t.dirs p

let register t o =
  let id = t.next_fd in
  t.next_fd <- id + 1;
  Hashtbl.replace t.objs id o;
  Env.Sim id

let obj t = function
  | Env.Sim id -> Hashtbl.find_opt t.objs id
  | Env.Real _ -> None

let err e name = raise (Unix.Unix_error (e, name, ""))

(* ------------------------------------------------------------------ *)
(* Crash *)

(* Power-cut image: roll back directory operations that were never made
   durable by [fsync_dir], then keep each surviving inode's synced
   prefix plus a seeded prefix of its unsynced bytes. *)
let power_cut_image t =
  let snap = Hashtbl.copy t.entries in
  List.iter
    (fun op ->
      match op with
      | Op_create p -> Hashtbl.remove snap p
      | Op_rename { r_src; r_dst; moved; displaced } ->
          (match displaced with
          | Some old -> Hashtbl.replace snap r_dst old
          | None -> Hashtbl.remove snap r_dst);
          Hashtbl.replace snap r_src moved
      | Op_remove { rm_path; removed } -> Hashtbl.replace snap rm_path removed)
    t.pending_dirops;
  let post = Hashtbl.create (Hashtbl.length snap) in
  Hashtbl.iter
    (fun path ino ->
      let u = Buffer.contents ino.unsynced in
      let keep = rand_int t (String.length u + 1) in
      let i' = inode_make () in
      i'.synced <- ino.synced ^ String.sub u 0 keep;
      Hashtbl.replace post path i')
    snap;
  post

let deliver_client _t c msg =
  (match msg with
  | Some s -> c.client_pending <- c.client_pending ^ s
  | None -> c.client_eof_pending <- true);
  if c.client_alive && not c.in_pump then
    match c.client_cb with
    | None -> ()
    | Some cb ->
        c.in_pump <- true;
        Fun.protect
          ~finally:(fun () -> c.in_pump <- false)
          (fun () ->
            let rec pump () =
              if c.client_pending <> "" then begin
                let s = c.client_pending in
                c.client_pending <- "";
                cb (Some s);
                pump ()
              end
              else if c.client_eof_pending && not c.client_eof_sent then begin
                c.client_eof_sent <- true;
                cb None
              end
            in
            pump ())

let crash_now t =
  if not t.crashed then begin
    t.crashed <- true;
    t.crash_pending <- true;
    t.crash_count <- t.crash_count + 1;
    tracef t "CRASH #%d (power cut)" t.crash_count;
    t.post_crash <- Some (power_cut_image t);
    (* The host vanished: every server-side endpoint dies and clients
       see EOF once the wire drains. *)
    Hashtbl.iter
      (fun _ o ->
        match o with
        | O_sock c when c.server_alive ->
            c.server_alive <- false;
            let arrival = Float.max (t.vnow +. net_delay t) c.arr_to_client in
            c.arr_to_client <- arrival;
            at t arrival (fun () -> deliver_client t c None)
        | _ -> ())
      t.objs;
    Hashtbl.iter
      (fun _ q ->
        Queue.iter
          (fun c ->
            c.server_alive <- false;
            at t (t.vnow +. net_delay t) (fun () -> deliver_client t c None))
          q)
      t.listeners;
    Hashtbl.reset t.listeners
  end

let crash_at t time = at t time (fun () -> crash_now t)

let crash_after_writes t n = t.op_crash <- Some (max 1 n)

let crashes t = t.crash_count
let in_crash t = t.crashed

let restart t =
  if not t.crashed then invalid_arg "Sim_env.restart: not crashed";
  (match t.post_crash with
  | Some post -> t.entries <- post
  | None -> ());
  t.post_crash <- None;
  t.pending_dirops <- [];
  t.crashed <- false;
  t.crash_pending <- false;
  t.op_crash <- None;
  (* Server-side objects are gone; client endpoints survive. *)
  let dead =
    Hashtbl.fold
      (fun id o acc ->
        match o with
        | O_file _ | O_listener _ | O_pipe_r _ | O_pipe_w _ -> id :: acc
        | O_sock c -> if c.server_alive then id :: acc else acc)
      t.objs []
  in
  List.iter (Hashtbl.remove t.objs) dead;
  (* A listener bound by the doomed process after the crash dies with it. *)
  Hashtbl.reset t.listeners;
  t.pool_gen <- t.pool_gen + 1;
  t.pool_step <- None;
  t.pool_running <- false;
  t.pool_stopped <- false;
  t.pool_kick_pending <- false;
  t.in_pool <- false;
  t.pool_delay <- 0.;
  t.pool_outstanding <- 0;
  t.pool_last_arrival <- 0.;
  tracef t "RESTART"

(* ------------------------------------------------------------------ *)
(* Client-side socket API (used by simulated client actors) *)

let client_connect t path =
  match Hashtbl.find_opt t.listeners path with
  | None -> Error Unix.ECONNREFUSED
  | Some q ->
      let c =
        {
          conn_id =
            (t.conn_next <- t.conn_next + 1;
             t.conn_next);
          to_server = "";
          server_eof = false;
          server_alive = true;
          client_alive = true;
          client_cb = None;
          client_pending = "";
          client_eof_pending = false;
          client_eof_sent = false;
          in_pump = false;
          arr_to_server = t.vnow;
          arr_to_client = t.vnow;
        }
      in
      Queue.push c q;
      Ok c

let on_conn_event _t c cb =
  c.client_cb <- Some cb;
  (* Deliver anything that arrived before the callback was installed. *)
  deliver_client _t c (Some "")

let client_send t c s =
  if s <> "" && c.client_alive then begin
    let arrival = Float.max (t.vnow +. net_delay t) c.arr_to_server in
    c.arr_to_server <- arrival;
    at t arrival (fun () ->
        if c.server_alive then c.to_server <- c.to_server ^ s)
  end

let client_close t c =
  if c.client_alive then begin
    c.client_alive <- false;
    c.client_cb <- None;
    let arrival = Float.max (t.vnow +. net_delay t) c.arr_to_server in
    c.arr_to_server <- arrival;
    at t arrival (fun () -> c.server_eof <- true)
  end

(* ------------------------------------------------------------------ *)
(* The Env implementation *)

let eps = 1e-4

let sim_openfile t path flags perm =
  ignore perm;
  let creat = List.mem Unix.O_CREAT flags in
  let ino =
    match Hashtbl.find_opt t.entries path with
    | Some i -> i
    | None ->
        if not creat then err Unix.ENOENT "open";
        let i = inode_make () in
        Hashtbl.replace t.entries path i;
        if not t.crashed then
          t.pending_dirops <- Op_create path :: t.pending_dirops;
        i
  in
  if List.mem Unix.O_TRUNC flags then begin
    ino.synced <- "";
    Buffer.clear ino.unsynced
  end;
  register t (O_file { f_path = path; f_inode = ino; f_closed = false })

let sim_write t fd s off len =
  match obj t fd with
  | Some (O_file f) ->
      if f.f_closed then err Unix.EBADF "write";
      if t.crashed then len
      else begin
        let n =
          if len > 1 && rand_float t < t.short_write_p then
            1 + rand_int t (len - 1)
          else len
        in
        (match t.op_crash with
        | Some k when k <= 1 ->
            (* Power cut in the middle of this very write: a seeded
               prefix of the chunk reaches the page cache, then the
               machine dies. *)
            t.op_crash <- None;
            let keep = rand_int t (n + 1) in
            Buffer.add_substring f.f_inode.unsynced s off keep;
            tracef t "op-crash during write to %s (%d/%d bytes in flight)"
              f.f_path keep n;
            crash_now t
        | Some k ->
            t.op_crash <- Some (k - 1);
            Buffer.add_substring f.f_inode.unsynced s off n
        | None -> Buffer.add_substring f.f_inode.unsynced s off n);
        n
      end
  | Some (O_sock c) ->
      if t.crashed then len
      else if not c.client_alive then err Unix.EPIPE "write"
      else begin
        let n =
          if len > 1 && rand_float t < t.short_write_p then
            1 + rand_int t (len - 1)
          else len
        in
        let chunk = String.sub s off n in
        let arrival = Float.max (t.vnow +. net_delay t) c.arr_to_client in
        c.arr_to_client <- arrival;
        at t arrival (fun () -> deliver_client t c (Some chunk));
        n
      end
  | Some (O_pipe_w p) ->
      if p.p_closed then err Unix.EBADF "write";
      p.p_pending <- p.p_pending + len;
      len
  | _ -> err Unix.EBADF "write"

let sim_read t fd buf off len =
  match obj t fd with
  | Some (O_sock c) ->
      if c.to_server <> "" then begin
        let n = min len (String.length c.to_server) in
        Bytes.blit_string c.to_server 0 buf off n;
        c.to_server <-
          String.sub c.to_server n (String.length c.to_server - n);
        n
      end
      else if c.server_eof then 0
      else err Unix.EAGAIN "read"
  | Some (O_pipe_r p) ->
      if p.p_pending > 0 then begin
        let n = min len p.p_pending in
        Bytes.fill buf off n '!';
        p.p_pending <- p.p_pending - n;
        n
      end
      else err Unix.EAGAIN "read"
  | _ -> err Unix.EBADF "read"

let sim_fsync t fd =
  match obj t fd with
  | Some (O_file f) ->
      if not t.crashed then begin
        f.f_inode.synced <-
          f.f_inode.synced ^ Buffer.contents f.f_inode.unsynced;
        Buffer.clear f.f_inode.unsynced
      end
  | _ -> ()

let sim_close t fd =
  match fd with
  | Env.Sim id -> (
      match Hashtbl.find_opt t.objs id with
      | Some (O_file f) ->
          f.f_closed <- true;
          Hashtbl.remove t.objs id
      | Some (O_listener l) ->
          (match Hashtbl.find_opt t.listeners l.l_path with
          | Some q when q == l.l_queue -> Hashtbl.remove t.listeners l.l_path
          | _ -> ());
          Hashtbl.remove t.objs id
      | Some (O_sock c) ->
          c.server_alive <- false;
          let arrival = Float.max (t.vnow +. net_delay t) c.arr_to_client in
          c.arr_to_client <- arrival;
          at t arrival (fun () -> deliver_client t c None);
          Hashtbl.remove t.objs id
      | Some (O_pipe_r p) | Some (O_pipe_w p) ->
          p.p_closed <- true;
          Hashtbl.remove t.objs id
      | None -> err Unix.EBADF "close")
  | Env.Real _ -> err Unix.EBADF "close"

let sim_rename t src dst =
  if not t.crashed then begin
    match Hashtbl.find_opt t.entries src with
    | None -> err Unix.ENOENT "rename"
    | Some ino ->
        let displaced = Hashtbl.find_opt t.entries dst in
        Hashtbl.remove t.entries src;
        Hashtbl.replace t.entries dst ino;
        t.pending_dirops <-
          Op_rename { r_src = src; r_dst = dst; moved = ino; displaced }
          :: t.pending_dirops
  end

let sim_unlink t path =
  if Hashtbl.mem t.listeners path then Hashtbl.remove t.listeners path
  else
    match Hashtbl.find_opt t.entries path with
    | Some ino ->
        if not t.crashed then begin
          Hashtbl.remove t.entries path;
          t.pending_dirops <-
            Op_remove { rm_path = path; removed = ino } :: t.pending_dirops
        end
    | None -> err Unix.ENOENT "unlink"

(* Directories are not rolled back by a power cut, so neither is their
   removal. *)
let sim_rmdir t dir =
  let inside p = Filename.dirname p = dir in
  if not (Hashtbl.mem t.dirs dir) then err Unix.ENOENT "rmdir"
  else if
    Hashtbl.fold (fun p _ busy -> busy || inside p) t.entries false
    || Hashtbl.fold (fun d () busy -> busy || inside d) t.dirs false
    || Hashtbl.fold (fun p _ busy -> busy || inside p) t.listeners false
  then err Unix.ENOTEMPTY "rmdir"
  else Hashtbl.remove t.dirs dir

let sim_readdir t dir =
  let names =
    Hashtbl.fold
      (fun p _ acc ->
        if Filename.dirname p = dir then Filename.basename p :: acc else acc)
      t.entries []
  in
  Array.of_list (List.sort compare names)

let sim_listen t path ~backlog =
  ignore backlog;
  if Hashtbl.mem t.listeners path then err Unix.EADDRINUSE "bind";
  let q = Queue.create () in
  Hashtbl.replace t.listeners path q;
  register t (O_listener { l_path = path; l_queue = q })

let sim_accept t fd =
  match obj t fd with
  | Some (O_listener l) ->
      (* Skip clients that hung up while queued. *)
      let rec pop () =
        if Queue.is_empty l.l_queue then None
        else
          let c = Queue.pop l.l_queue in
          if c.client_alive then Some (register t (O_sock c)) else pop ()
      in
      pop ()
  | _ -> None

let readable t fd =
  match obj t fd with
  | Some (O_listener l) -> not (Queue.is_empty l.l_queue)
  | Some (O_sock c) -> c.to_server <> "" || c.server_eof
  | Some (O_pipe_r p) -> p.p_pending > 0
  | _ -> false

let writable t fd =
  match obj t fd with
  | Some (O_sock _) -> true  (* a dead peer surfaces as EPIPE on write *)
  | Some (O_pipe_w _) -> true
  | _ -> false

let sim_select t rfds wfds timeout =
  if t.crash_pending then begin
    t.crash_pending <- false;
    raise Crashed
  end;
  t.selects <- t.selects + 1;
  if t.selects > t.select_cap then raise Stalled;
  fire_due t;
  let ready () =
    ( List.filter (readable t) rfds,
      List.filter (writable t) wfds )
  in
  let r, w = ready () in
  if r <> [] || w <> [] then begin
    (* The loop did work: charge a small fixed cost so virtual time
       always advances and a spinning loop hits the select cap. *)
    t.vnow <- t.vnow +. eps;
    fire_due t;
    ready ()
  end
  else begin
    let target = t.vnow +. Float.max timeout 0. in
    match t.events with
    | (te, _, _) :: _ when te <= target ->
        t.vnow <- Float.max t.vnow te;
        fire_due t;
        ready ()
    | _ ->
        t.vnow <- target;
        ([], [])
  end

let sim_pipe t =
  let p = { p_pending = 0; p_closed = false } in
  (register t (O_pipe_r p), register t (O_pipe_w p))

(* ------------------------------------------------------------------ *)
(* Simulated compute pool: single compute context, batches serialized,
   results published a seeded virtual latency after the batch is taken
   so the event loop observes the busy window a real compute domain
   would produce. *)

let pool_latency t = 0.002 +. (rand_float t *. 0.02)

let rec try_step t =
  if (not t.crashed) && not t.pool_stopped then begin
    if t.pool_running then t.pool_kick_pending <- true
    else
      match t.pool_step with
      | None -> ()
      | Some step ->
          t.pool_running <- true;
          t.in_pool <- true;
          t.pool_delay <- 0.;
          t.pool_last_arrival <- t.vnow;
          let r =
            Fun.protect
              ~finally:(fun () -> t.in_pool <- false)
              (fun () -> step ~block:false)
          in
          (match r with `Stop -> t.pool_stopped <- true | `Ran | `Idle -> ());
          if t.pool_outstanding = 0 then begin
            t.pool_running <- false;
            if t.pool_kick_pending then begin
              t.pool_kick_pending <- false;
              kick t
            end
          end
  end

and kick t =
  let gen = t.pool_gen in
  after t (0.0005 +. (rand_float t *. 0.002)) (fun () ->
      if gen = t.pool_gen then try_step t)

let sim_spawn_compute t step =
  t.pool_gen <- t.pool_gen + 1;
  t.pool_step <- Some step;
  t.pool_running <- false;
  t.pool_stopped <- false;
  t.pool_kick_pending <- false;
  t.pool_outstanding <- 0;
  let join () =
    (* Join runs after the event loop exited (drain or crash), so the
       remaining steps run inline; a stop job is already enqueued. *)
    let rec go n =
      if (not t.pool_stopped) && n < 10_000 then begin
        (match t.pool_step with
        | None -> t.pool_stopped <- true
        | Some step ->
            t.in_pool <- true;
            t.pool_delay <- 0.;
            let r =
              Fun.protect
                ~finally:(fun () -> t.in_pool <- false)
                (fun () -> step ~block:false)
            in
            (match r with
            | `Stop -> t.pool_stopped <- true
            | `Ran | `Idle -> ()));
        go (n + 1)
      end
    in
    go 0
  in
  { Env.kick = (fun () -> if not t.crashed then kick t); join }

let sim_defer_done t f =
  if not t.in_pool then f ()
  else begin
    let arrival =
      Float.max
        (t.vnow +. pool_latency t +. t.pool_delay)
        (t.pool_last_arrival +. 1e-6)
    in
    t.pool_last_arrival <- arrival;
    t.pool_outstanding <- t.pool_outstanding + 1;
    let gen = t.pool_gen in
    at t arrival (fun () ->
        if gen = t.pool_gen then begin
          t.pool_outstanding <- t.pool_outstanding - 1;
          f ();
          if t.pool_outstanding = 0 && not t.in_pool then begin
            t.pool_running <- false;
            if t.pool_kick_pending then begin
              t.pool_kick_pending <- false;
              kick t
            end
          end
        end)
  end

(* ------------------------------------------------------------------ *)

let env t = t.env

let create ?(select_cap = 500_000) ~seed () =
  let t =
    {
      seed;
      rng = Splitmix.make (Int64.of_int ((seed * 2) + 1));
      vnow = 0.;
      events = [];
      eseq = 0;
      objs = Hashtbl.create 64;
      next_fd = 3;
      entries = Hashtbl.create 64;
      dirs = Hashtbl.create 8;
      pending_dirops = [];
      listeners = Hashtbl.create 4;
      conn_next = 0;
      crashed = false;
      crash_pending = false;
      post_crash = None;
      op_crash = None;
      crash_count = 0;
      short_write_p = 0.05;
      net_delay_base = 0.0005;
      net_delay_spread = 0.004;
      selects = 0;
      select_cap;
      trace = Buffer.create 4096;
      pool_step = None;
      pool_gen = 0;
      pool_running = false;
      pool_stopped = false;
      pool_kick_pending = false;
      in_pool = false;
      pool_delay = 0.;
      pool_outstanding = 0;
      pool_last_arrival = 0.;
      env = Env.real;
    }
  in
  let sleep d =
    if d > 0. then
      if t.in_pool then
        (* The compute context sleeping does not block the event loop;
           it stretches the batch's busy window instead. *)
        t.pool_delay <- t.pool_delay +. d
      else t.vnow <- t.vnow +. d
  in
  t.env <-
    {
      Env.name = "sim";
      now = (fun () -> t.vnow);
      sleep;
      openfile = (fun p f m -> sim_openfile t p f m);
      read = (fun fd b o l -> sim_read t fd b o l);
      write = (fun fd s o l -> sim_write t fd s o l);
      fsync = (fun fd -> sim_fsync t fd);
      close = (fun fd -> sim_close t fd);
      rename = (fun a b -> sim_rename t a b);
      unlink = (fun p -> sim_unlink t p);
      mkdir = (fun d _ -> Hashtbl.replace t.dirs d ());
      rmdir = (fun d -> sim_rmdir t d);
      readdir = (fun d -> sim_readdir t d);
      file_exists = (fun p -> file_exists t p);
      read_file =
        (fun p ->
          Option.map inode_contents (Hashtbl.find_opt t.entries p));
      fsync_dir = (fun _ -> if not t.crashed then t.pending_dirops <- []);
      listen = (fun p ~backlog -> sim_listen t p ~backlog);
      accept = (fun fd -> sim_accept t fd);
      select = (fun r w tmo -> sim_select t r w tmo);
      pipe = (fun () -> sim_pipe t);
      spawn_compute = (fun step -> sim_spawn_compute t step);
      defer_done = (fun f -> sim_defer_done t f);
    };
  t

let selects t = t.selects
let set_short_write_p t p = t.short_write_p <- p
