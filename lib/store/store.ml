type stats = {
  entries : int;
  shards : int;
  loaded : int;
  served : int;
  missed : int;
  appended : int;
  write_errors : int;
  corrupt : int;
  compactions : int;
}

type t = {
  env : Vmbp_sim.Env.t;
  s_dir : string;
  nshards : int;
  fds : Vmbp_sim.Env.fd array;
  lock : Mutex.t;
  tbl : (string * string, Cellrec.entry) Hashtbl.t;
  latest : (string, string) Hashtbl.t;
      (* key -> fingerprint of its most recent record (shard order, then
         line order -- the order scrub calls "stale").  Compaction keeps
         only each key's latest fingerprint: older ones were computed by
         code that has since changed and no current lookup asks for
         them. *)
  mutable closed : bool;
  mutable loaded : int;
  mutable served : int;
  mutable missed : int;
  mutable appended : int;
  mutable write_errors : int;
  mutable corrupt : int;
  mutable compactions : int;
}

let io_fault_hook : (unit -> bool) ref = ref (fun () -> false)

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

let shard_name i = Printf.sprintf "shard-%02d.vcas" i

let shard_path t i = Filename.concat t.s_dir (shard_name i)

(* Key -> shard.  Purely a load-spreading choice: lookups go through the
   in-memory table, so re-opening with a different shard count only moves
   where *future* appends land (and where compaction rewrites records). *)
let shard_of_key t key = Crc32.digest key mod t.nshards

let write_all (env : Vmbp_sim.Env.t) fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + env.write fd s off (len - off))
  in
  go 0

(* One shard file: every line is independently framed, so a corrupt
   record -- flipped bytes, a spliced write, a torn tail -- is skipped
   and counted without giving up on the rest of the file. *)
let load_shard t path =
  match t.env.read_file path with
  | None -> ()
  | Some contents ->
      List.iter
        (fun line ->
          if String.trim line <> "" then
            match Frame.decode line with
            | Frame.Framed payload -> (
                match Cellrec.of_line payload with
                | Some e ->
                    Hashtbl.replace t.tbl (e.Cellrec.key, e.Cellrec.fingerprint) e;
                    Hashtbl.replace t.latest e.Cellrec.key
                      e.Cellrec.fingerprint;
                    t.loaded <- t.loaded + 1
                | None -> t.corrupt <- t.corrupt + 1)
            | Frame.Corrupt -> t.corrupt <- t.corrupt + 1)
        (Vmbp_sim.Env.lines_of_contents contents)

let open_ ?(shards = 8) dir =
  if shards < 1 then invalid_arg "Store.open_: shards must be >= 1";
  let env = !Vmbp_sim.Env.current in
  Vmbp_sim.Env.mkdir_p env dir;
  (* Stale temp files are debris from a compaction that died before its
     rename; the original shard is intact, so they are just deleted. *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        try env.unlink (Filename.concat dir f)
        with Unix.Unix_error _ | Sys_error _ -> ())
    (env.readdir dir);
  (* Read every shard present, even past the requested count, so a store
     written under a larger shard setting loses nothing. *)
  let existing =
    Array.to_list (env.readdir dir)
    |> List.filter_map (fun f ->
           if
             String.length f = String.length (shard_name 0)
             && String.sub f 0 6 = "shard-"
             && Filename.check_suffix f ".vcas"
           then int_of_string_opt (String.sub f 6 2)
           else None)
  in
  let nshards = List.fold_left (fun a i -> max a (i + 1)) shards existing in
  let t =
    {
      env;
      s_dir = dir;
      nshards;
      fds = [||];
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
      compactions = 0;
    }
  in
  for i = 0 to nshards - 1 do
    load_shard t (shard_path t i)
  done;
  if t.corrupt > 0 then Vmbp_obs.Registry.add m_corrupt t.corrupt;
  let fds =
    Array.init nshards (fun i ->
        env.openfile (shard_path t i)
          [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
          0o644)
  in
  (* Newly created shard files are directory entries: make them durable
     now, or the first crash after an acked write could lose the whole
     file rather than a record. *)
  env.fsync_dir dir;
  { t with fds }

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
  let dropped = t.closed || !io_fault_hook () in
  if dropped then begin
    t.write_errors <- t.write_errors + 1;
    Vmbp_obs.Registry.add m_write_errors 1
  end
  else begin
    let fd = t.fds.(shard_of_key t e.Cellrec.key) in
    match
      write_all t.env fd line;
      if not !mutation_skip_fsync then t.env.fsync fd
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
        (* Drop records superseded by a newer fingerprint for the same
           key, then bucket the survivors by current shard mapping. *)
        let stale =
          Hashtbl.fold
            (fun (key, fp) _ acc ->
              if Hashtbl.find_opt t.latest key <> Some fp then
                (key, fp) :: acc
              else acc)
            t.tbl []
        in
        List.iter (Hashtbl.remove t.tbl) stale;
        let buckets = Array.make t.nshards [] in
        Hashtbl.iter
          (fun (key, _) e ->
            let i = shard_of_key t key in
            buckets.(i) <- e :: buckets.(i))
          t.tbl;
        for i = 0 to t.nshards - 1 do
          let tmp = shard_path t i ^ ".tmp" in
          let fd =
            env.openfile tmp
              [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
              0o644
          in
          (try
             List.iter
               (fun e -> write_all env fd (Frame.encode (Cellrec.to_line e)))
               (List.rev buckets.(i));
             env.fsync fd
           with e ->
             env.close fd;
             raise e);
          env.close fd;
          (* The append descriptor must move to the new file: the rename
             unlinks the old inode, and writes to it would be lost. *)
          env.rename tmp (shard_path t i);
          let old = t.fds.(i) in
          t.fds.(i) <-
            env.openfile (shard_path t i) [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644;
          try env.close old with Unix.Unix_error _ -> ()
        done;
        if not !mutation_skip_dir_fsync then env.fsync_dir t.s_dir;
        t.compactions <- t.compactions + 1
      end)

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      entries = Hashtbl.length t.tbl;
      shards = t.nshards;
      loaded = t.loaded;
      served = t.served;
      missed = t.missed;
      appended = t.appended;
      write_errors = t.write_errors;
      corrupt = t.corrupt;
      compactions = t.compactions;
    }
  in
  Mutex.unlock t.lock;
  s

let dir t = t.s_dir

let close t =
  Mutex.lock t.lock;
  if not t.closed then begin
    t.closed <- true;
    Array.iter
      (fun fd -> try t.env.close fd with Unix.Unix_error _ -> ())
      t.fds
  end;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Offline scrub: read-only shard scan, no store handle, no table.

   A record is "stale" when a later record (in shard order, then line
   order) carries the same key with a *different* fingerprint: its
   result was computed under a configuration that has since changed, so
   no current lookup can ever serve it.  Exact-duplicate supersessions
   (same key and fingerprint appended twice) stay plain records -- the
   in-memory table last-wins over them and compaction folds them away. *)

type shard_report = {
  sr_shard : string;
  sr_records : int;
  sr_corrupt : int;
  sr_stale : int;
}

let scrub dir =
  let env = !Vmbp_sim.Env.current in
  let shard_files =
    Array.to_list (try env.readdir dir with Unix.Unix_error _ | Sys_error _ -> [||])
    |> List.filter (fun f ->
           String.length f = String.length (shard_name 0)
           && String.sub f 0 6 = "shard-"
           && Filename.check_suffix f ".vcas")
    |> List.sort compare
  in
  (* Pass 1: per-shard record lists, counting corruption as we go. *)
  let scanned =
    List.map
      (fun f ->
        let records = ref [] and corrupt = ref 0 in
        (match env.read_file (Filename.concat dir f) with
        | None -> ()
        | Some contents ->
            List.iter
              (fun line ->
                if String.trim line <> "" then
                  match Frame.decode line with
                  | Frame.Framed payload -> (
                      match Cellrec.of_line payload with
                      | Some e ->
                          records :=
                            (e.Cellrec.key, e.Cellrec.fingerprint) :: !records
                      | None -> incr corrupt)
                  | Frame.Corrupt -> incr corrupt)
              (Vmbp_sim.Env.lines_of_contents contents));
        (f, List.rev !records, !corrupt))
      shard_files
  in
  (* Pass 2: the last fingerprint seen for each key across the whole
     store is the current one. *)
  let current = Hashtbl.create 256 in
  List.iter
    (fun (_, records, _) ->
      List.iter (fun (key, fp) -> Hashtbl.replace current key fp) records)
    scanned;
  List.map
    (fun (f, records, corrupt) ->
      let stale =
        List.fold_left
          (fun acc (key, fp) ->
            match Hashtbl.find_opt current key with
            | Some cur when cur <> fp -> acc + 1
            | _ -> acc)
          0 records
      in
      {
        sr_shard = f;
        sr_records = List.length records;
        sr_corrupt = corrupt;
        sr_stale = stale;
      })
    scanned
