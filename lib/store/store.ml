type stats = {
  entries : int;
  loaded : int;
  served : int;
  missed : int;
  appended : int;
  write_errors : int;
  corrupt : int;
  unreadable : int;
  compactions : int;
}

type t = {
  env : Vmbp_sim.Env.t;
  s_dir : string;
  mutable fd : Vmbp_sim.Env.fd;
  lock : Mutex.t;
  tbl : (string * string, Cellrec.entry) Hashtbl.t;
  latest : (string, string) Hashtbl.t;
      (* key -> fingerprint of its most recent record (append order, the
         order scrub calls "stale").  Compaction keeps only each key's
         latest fingerprint: older ones were computed by code that has
         since changed and no current lookup asks for them. *)
  mutable closed : bool;
  mutable loaded : int;
  mutable served : int;
  mutable missed : int;
  mutable appended : int;
  mutable write_errors : int;
  mutable corrupt : int;
  mutable unreadable : string list;
      (* framed lines this build cannot parse, newest first; never
         served, written back byte-identical by [compact] *)
  mutable compactions : int;
}

(* Mutation teeth for the simulation harness: each one reintroduces a
   durability bug on purpose so `simulate --mutate` can prove the
   invariant checks would catch it.  Never set outside tests. *)
let mutation_skip_fsync = ref false
let mutation_skip_dir_fsync = ref false

(* Registry mirrors, so [--metrics] and the vmbp-cells/8 summary can
   report store traffic without a store handle. *)
let m_hits = Vmbp_obs.Registry.counter "store.hits"
let m_misses = Vmbp_obs.Registry.counter "store.misses"
let m_appended = Vmbp_obs.Registry.counter "store.appended"
let m_write_errors = Vmbp_obs.Registry.counter "store.write_errors"
let m_corrupt = Vmbp_obs.Registry.counter "store.corrupt_records"

let file_name = "cells.vcas"
let file dir = Filename.concat dir file_name

(* Every line of a store file is framed on its own, so a corrupt record
   -- flipped bytes, a spliced write, a torn tail -- is skipped and
   counted without giving up on the rest of the file.  A line whose frame
   checks but whose payload [Cellrec] rejects is intact but unreadable
   here: another record format wrote it. *)
let read_records (env : Vmbp_sim.Env.t) path ~record ~corrupt ~unreadable =
  match env.read_file path with
  | None -> ()
  | Some contents ->
      List.iter
        (fun line ->
          if String.trim line <> "" then
            match Frame.decode line with
            | Frame.Framed payload -> (
                match Cellrec.of_line payload with
                | Some e -> record e
                | None -> unreadable line)
            | Frame.Corrupt -> corrupt ())
        (Vmbp_sim.Env.lines_of_contents contents)

let write_all (env : Vmbp_sim.Env.t) fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + env.write fd s off (len - off))
  in
  go 0

let lookup t ~key ~fingerprint =
  Mutex.lock t.lock;
  let r = Hashtbl.find_opt t.tbl (key, fingerprint) in
  (match r with
  | Some _ -> t.served <- t.served + 1
  | None -> t.missed <- t.missed + 1);
  Mutex.unlock t.lock;
  (match r with
  | Some _ -> Vmbp_obs.Registry.add m_hits 1
  | None -> Vmbp_obs.Registry.add m_misses 1);
  r

let mem t ~key ~fingerprint =
  Mutex.lock t.lock;
  let r = Hashtbl.mem t.tbl (key, fingerprint) in
  Mutex.unlock t.lock;
  r

let iter t f =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> Hashtbl.iter (fun _ e -> f e) t.tbl)

let append t (e : Cellrec.entry) =
  let line = Frame.encode (Cellrec.to_line e) in
  Mutex.lock t.lock;
  (* The entry serves from memory either way; only durability can fail. *)
  Hashtbl.replace t.tbl (e.Cellrec.key, e.Cellrec.fingerprint) e;
  Hashtbl.replace t.latest e.Cellrec.key e.Cellrec.fingerprint;
  let dropped = t.closed || Vmbp_sim.Faults.store_io () in
  if dropped then begin
    t.write_errors <- t.write_errors + 1;
    Vmbp_obs.Registry.add m_write_errors 1
  end
  else begin
    match
      write_all t.env t.fd line;
      if not !mutation_skip_fsync then t.env.fsync t.fd
    with
    | () ->
        t.appended <- t.appended + 1;
        Vmbp_obs.Registry.add m_appended 1
    | exception Unix.Unix_error _ ->
        t.write_errors <- t.write_errors + 1;
        Vmbp_obs.Registry.add m_write_errors 1
  end;
  Mutex.unlock t.lock

let compact t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if not t.closed then begin
        let env = t.env in
        let path = file t.s_dir in
        let tmp = path ^ ".tmp" in
        (* Drop records superseded by a newer fingerprint for the same
           key: what is left holds one record per key. *)
        let stale =
          Hashtbl.fold
            (fun (key, fp) _ acc ->
              if Hashtbl.find_opt t.latest key <> Some fp then
                (key, fp) :: acc
              else acc)
            t.tbl []
        in
        List.iter (Hashtbl.remove t.tbl) stale;
        let fd =
          env.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
        in
        (* Unreadable lines go last, so the build that wrote them still
           finds each one the latest record of its key. *)
        (try
           Hashtbl.iter
             (fun _ e -> write_all env fd (Frame.encode (Cellrec.to_line e)))
             t.tbl;
           List.iter
             (fun line -> write_all env fd (line ^ "\n"))
             (List.rev t.unreadable);
           env.fsync fd
         with e ->
           env.close fd;
           raise e);
        env.close fd;
        (* The append descriptor must move to the new file: the rename
           unlinks the old inode, and writes to it would be lost. *)
        env.rename tmp path;
        let old = t.fd in
        t.fd <- env.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644;
        (try env.close old with Unix.Unix_error _ -> ());
        if not !mutation_skip_dir_fsync then env.fsync_dir t.s_dir;
        t.compactions <- t.compactions + 1
      end)

let close t =
  Mutex.lock t.lock;
  if not t.closed then begin
    t.closed <- true;
    try t.env.close t.fd with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock t.lock

let open_ dir =
  let env = !Vmbp_sim.Env.current in
  Vmbp_sim.Env.mkdir_p env dir;
  (* Stale temp files are debris from a compaction that died before its
     rename; the original file is intact, so they are just deleted. *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        try env.unlink (Filename.concat dir f)
        with Unix.Unix_error _ | Sys_error _ -> ())
    (env.readdir dir);
  let t =
    {
      env;
      s_dir = dir;
      fd =
        env.openfile (file dir)
          [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
          0o644;
      lock = Mutex.create ();
      tbl = Hashtbl.create 1024;
      latest = Hashtbl.create 1024;
      closed = false;
      loaded = 0;
      served = 0;
      missed = 0;
      appended = 0;
      write_errors = 0;
      corrupt = 0;
      unreadable = [];
      compactions = 0;
    }
  in
  (* A newly created file is a directory entry: make it durable now, or
     the first crash after an acked write could lose the whole file
     rather than a record. *)
  env.fsync_dir dir;
  read_records env (file dir)
    ~record:(fun e ->
      Hashtbl.replace t.tbl (e.Cellrec.key, e.Cellrec.fingerprint) e;
      Hashtbl.replace t.latest e.Cellrec.key e.Cellrec.fingerprint;
      t.loaded <- t.loaded + 1)
    ~corrupt:(fun () -> t.corrupt <- t.corrupt + 1)
    ~unreadable:(fun line -> t.unreadable <- line :: t.unreadable);
  if t.corrupt > 0 then Vmbp_obs.Registry.add m_corrupt t.corrupt;
  t

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      entries = Hashtbl.length t.tbl;
      loaded = t.loaded;
      served = t.served;
      missed = t.missed;
      appended = t.appended;
      write_errors = t.write_errors;
      corrupt = t.corrupt;
      unreadable = List.length t.unreadable;
      compactions = t.compactions;
    }
  in
  Mutex.unlock t.lock;
  s

(* ------------------------------------------------------------------ *)
(* Offline scrub: a read-only scan, no store handle, no table.

   A record is "stale" when a later record (in append order) carries the
   same key with a *different* fingerprint: its result was computed
   under a configuration that has since changed, so no current lookup
   can ever serve it.  Exact-duplicate supersessions (same key and
   fingerprint appended twice) stay plain records -- the in-memory table
   last-wins over them and compaction folds them away. *)

type scrub_report = {
  sr_file : string;
  sr_records : int;
  sr_corrupt : int;
  sr_unreadable : int;
  sr_stale : int;
}

let scrub dir =
  let env = !Vmbp_sim.Env.current in
  let path = file dir in
  if not (env.file_exists path) then []
  else begin
    let records = ref [] and corrupt = ref 0 and unreadable = ref 0 in
    read_records env path
      ~record:(fun e ->
        records := (e.Cellrec.key, e.Cellrec.fingerprint) :: !records)
      ~corrupt:(fun () -> incr corrupt)
      ~unreadable:(fun _ -> incr unreadable);
    (* The last fingerprint appended for each key is the current one. *)
    let current = Hashtbl.create 256 in
    List.iter
      (fun (key, fp) -> Hashtbl.replace current key fp)
      (List.rev !records);
    let stale =
      List.fold_left
        (fun acc (key, fp) ->
          if Hashtbl.find current key <> fp then acc + 1 else acc)
        0 !records
    in
    [
      {
        sr_file = file_name;
        sr_records = List.length !records;
        sr_corrupt = !corrupt;
        sr_unreadable = !unreadable;
        sr_stale = stale;
      };
    ]
  end
