(** Checksummed, content-addressed result store in one append-only
    file.

    The crash-safe resume path of a report run and the persistence layer
    of the report service: completed cells are addressed by their
    parameter-complete key plus configuration fingerprint, every record
    is appended to [cells.vcas] in the store directory, and every record
    is framed with a CRC-32 and a length header ({!Frame}), so corruption
    {e anywhere} in the file -- not just a torn final line -- is
    detected, skipped and counted on load, and repaired by {!compact}.
    Appends are written whole and fsync'd; a [kill -9] at any instant
    leaves at worst one torn tail record, which the framing skips, so the
    store is loadable after any crash.  A record whose frame checks but
    whose payload this build's {!Cellrec} cannot parse -- one a newer
    record format wrote -- is {e unreadable}: kept, counted, never
    served, and carried through compaction byte for byte, so opening a
    store with an older build loses nothing.  Records load in append
    order, so the latest record of a key always wins.  Compaction
    rewrites the file through write-temp/fsync/rename, so it too can die
    at any instant without losing the old file.

    The store is a live table: an appended entry is immediately
    {!lookup}-able, which is what a long-running service needs.  All
    operations are thread-safe. *)

type stats = {
  entries : int;  (** distinct (key, fingerprint) records held *)
  loaded : int;  (** well-formed records read at [open_] *)
  served : int;  (** successful lookups *)
  missed : int;  (** lookups that found nothing *)
  appended : int;  (** records durably written this session *)
  write_errors : int;  (** appends dropped (I/O failure or injected) *)
  corrupt : int;  (** corrupt records skipped on load, since [open_] *)
  unreadable : int;  (** intact records this build cannot parse, kept *)
  compactions : int;
}

type t

val mutation_skip_fsync : bool ref
(** Mutation tooth: when [true], {!append} skips the per-record fsync --
    reintroducing ack-before-durability.  Exists so the simulation
    harness can prove its invariants catch the bug; never set it outside
    tests. *)

val mutation_skip_dir_fsync : bool ref
(** Mutation tooth: when [true], {!compact} skips the final directory
    fsync after its rename.  See {!mutation_skip_fsync}. *)

val file : string -> string
(** The store file of a store directory: [DIR/cells.vcas]. *)

val open_ : string -> t
(** Open (creating if needed) the store directory and its [cells.vcas],
    and load every record.  Stale temp files from a crashed compaction
    are removed, and a newly created file is made durable with a
    directory fsync before the call returns.  Only [cells.vcas] is read:
    any other file in the directory is neither loaded nor removed.  All
    I/O goes through the environment captured from
    {!Vmbp_sim.Env.current} at this moment, which is how the simulation
    harness substitutes its faulty filesystem.  Raises
    [Unix.Unix_error] or [Sys_error] if the directory cannot be created
    or read, or its file cannot be opened for appending. *)

val lookup : t -> key:string -> fingerprint:string -> Cellrec.entry option
(** Served from the in-memory table: entries loaded at [open_] plus
    everything appended since, last write winning. *)

val mem : t -> key:string -> fingerprint:string -> bool
(** Presence test that does not count as a hit or a miss; used by writers
    deciding whether an append would be a duplicate. *)

val append : t -> Cellrec.entry -> unit
(** Frame, write and fsync one record to [cells.vcas], and make it
    immediately lookup-able.  A write failure, or a fire of the
    [store-io] chaos point ({!Vmbp_sim.Faults.store_io}), drops the write
    exactly as a disk error would: it is counted and otherwise ignored,
    the entry still serves from memory, and whatever process loads the
    store next simply recomputes it. *)

val compact : t -> unit
(** Rewrite [cells.vcas] from the in-memory table, followed by the
    unreadable records byte-identical: corrupt bytes and superseded
    records are dropped, and the file is replaced by
    write-temp / fsync / rename, then the directory is fsync'd, so a
    crash mid-compaction loses nothing. *)

val iter : t -> (Cellrec.entry -> unit) -> unit
(** Apply a function to every live entry under the store lock.  The
    callback must not call back into the store. *)

val stats : t -> stats

val close : t -> unit
(** Close the append descriptor; further appends count as write
    errors. *)

(** {2 Offline scrub} *)

type scrub_report = {
  sr_file : string;  (** file name *)
  sr_records : int;  (** well-formed records *)
  sr_corrupt : int;  (** undecodable or unframed lines *)
  sr_unreadable : int;  (** intact frames this build cannot parse *)
  sr_stale : int;
      (** records whose key reappears later (in append order) under a
          {e different} fingerprint: computed under a configuration that
          has since changed, so unreachable by any current lookup *)
}

val scrub : string -> scrub_report list
(** Read-only scan of a store directory's [cells.vcas] (no report when
    the directory has none), without opening the store for writing.  Safe on a
    directory another process has open.  [compact] (on an opened store)
    repairs the corrupt and stale records scrub counts and keeps the
    unreadable ones. *)
