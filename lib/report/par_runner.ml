open Vmbp_core
open Vmbp_machine

(* ------------------------------------------------------------------ *)
(* Cells *)

type cell = {
  tag : string;
  workload : Vmbp_workloads.t;
  technique : Technique.t;
  cpu : Cpu_model.t;
  scale : int;
  predictor : Predictor.kind option;
}

type mode = Direct | Record | Replay

let mode_name = function
  | Direct -> "direct"
  | Record -> "record"
  | Replay -> "replay"

type timed = {
  cell : cell;
  outcome : (Runner.run, string) result;
  wall_seconds : float;
  serve_seconds : float;
  mode : mode;
  attempts : int;
  timed_out : bool;
  from_journal : bool;
  audited : bool;
}

(* ------------------------------------------------------------------ *)
(* Observability instruments (see {!Vmbp_obs.Registry}).  Handles are
   module-level so [Registry.reset] between report runs zeroes them in
   place; every update happens at cell or group granularity, never inside
   the simulation hot loops. *)

let m_cache_live_hits = Vmbp_obs.Registry.counter "trace_cache.live_hits"
let m_cache_memo_hits = Vmbp_obs.Registry.counter "trace_cache.memo_hits"
let m_cache_misses = Vmbp_obs.Registry.counter "trace_cache.misses"
let m_cache_insertions = Vmbp_obs.Registry.counter "trace_cache.insertions"

(* An eviction demotes a live entry to a memo-only summary, so this also
   counts memo demotions. *)
let m_cache_evictions = Vmbp_obs.Registry.counter "trace_cache.evictions"

(* Cells served verbatim from the full-result cache: no simulation ran. *)
let m_result_hits = Vmbp_obs.Registry.counter "result_cache.hits"

(* Banked replays: single-pass group traversals that fed at least one
   fresh simulator configuration, and the configurations they fed. *)
let m_bank_replays = Vmbp_obs.Registry.counter "trace.bank_replays"
let m_banked_configs = Vmbp_obs.Registry.counter "trace.banked_configs"
let m_cell_retries = Vmbp_obs.Registry.counter "cells.retries"
let m_cell_timeouts = Vmbp_obs.Registry.counter "cells.timeouts"
let g_queue_depth = Vmbp_obs.Registry.gauge "pool.queue_depth"
let g_busy_workers = Vmbp_obs.Registry.gauge "pool.busy_workers"

let h_cell_wall =
  Vmbp_obs.Registry.histogram
    ~bounds:[| 1e-4; 1e-3; 1e-2; 0.1; 1.; 10.; 60. |]
    "cell.wall_seconds"

let h_cell_minor_words =
  Vmbp_obs.Registry.histogram
    ~bounds:[| 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]
    "cell.minor_words"

(* ------------------------------------------------------------------ *)
(* Progress heartbeat: one stderr line, redrawn in place at most twice a
   second, from whichever domain happens to tick first.  Never written
   unless [progress] is on, and never to stdout, so report tables stay
   byte-identical with the heartbeat enabled. *)

let progress = ref false
let prog_lock = Mutex.create ()
let prog_active = ref false
let prog_total = ref 0
let prog_done = ref 0
let prog_start = ref 0.
let prog_last = ref 0.
let prog_busy : (int, string) Hashtbl.t = Hashtbl.create 8

(* Called with [prog_lock] held. *)
let progress_draw now =
  prog_last := now;
  let elapsed = now -. !prog_start in
  let d = !prog_done and t = !prog_total in
  let eta =
    if d = 0 || d >= t then ""
    else
      Printf.sprintf "  eta %.0fs"
        (elapsed *. float_of_int (t - d) /. float_of_int d)
  in
  Printf.eprintf "\r[vmbp] %d/%d cells  %d busy  %.0fs elapsed%s   %!" d t
    (Hashtbl.length prog_busy) elapsed eta

let progress_tick () =
  if !progress && !prog_active then begin
    let now = Vmbp_sim.Env.now () in
    if now -. !prog_last >= 0.5 then begin
      Mutex.lock prog_lock;
      if !prog_active && now -. !prog_last >= 0.5 then progress_draw now;
      Mutex.unlock prog_lock
    end
  end

let progress_begin total =
  if !progress then begin
    Mutex.lock prog_lock;
    prog_active := true;
    prog_total := total;
    prog_done := 0;
    prog_start := Vmbp_sim.Env.now ();
    prog_last := 0.;
    Hashtbl.reset prog_busy;
    Mutex.unlock prog_lock
  end

let progress_cell_done () =
  if !progress && !prog_active then begin
    Mutex.lock prog_lock;
    prog_done := !prog_done + 1;
    Mutex.unlock prog_lock
  end

let progress_busy name =
  if !progress && !prog_active then begin
    Mutex.lock prog_lock;
    Hashtbl.replace prog_busy (Domain.self () :> int) name;
    Mutex.unlock prog_lock
  end

let progress_idle () =
  if !progress && !prog_active then begin
    Mutex.lock prog_lock;
    Hashtbl.remove prog_busy (Domain.self () :> int);
    Mutex.unlock prog_lock
  end

let progress_end () =
  if !progress then begin
    Mutex.lock prog_lock;
    if !prog_active then begin
      prog_active := false;
      Hashtbl.reset prog_busy;
      (* Erase the heartbeat so whatever stderr prints next starts on a
         clean line. *)
      Printf.eprintf "\r%s\r%!" (String.make 70 ' ')
    end;
    Mutex.unlock prog_lock
  end

let default_jobs = ref 1

(* Differential checking, set from the command line: [self_check] routes
   every cell through the reference-model lockstep run ([--self-check]);
   [audit_sample] is the deterministic fraction of trace-replay cells
   cross-checked against a fresh direct execution ([--audit-sample]). *)
let self_check = ref false
let audit_sample = ref 0.02

(* Total budget for retained dispatch traces, in MB; [<= 0] disables
   record/replay entirely (every cell simulates directly). *)
let trace_cap_mb = ref 256

(* Watchdog/retry policy, set from the command line. *)
let cell_timeout = ref 0.
let cell_retries = ref 1
let retry_backoff_s = ref 0.02

(* ------------------------------------------------------------------ *)
(* Graceful shutdown.

   The first Ctrl-C sets this flag; workers finish the group in hand,
   skip everything still queued, and [run_cells] reports the skipped
   cells as interrupted so the harness can emit a partial report.  The
   journal needs no extra flushing -- every append was already fsync'd. *)

let shutdown = Atomic.make false
let request_shutdown () = Atomic.set shutdown true
let shutting_down () = Atomic.get shutdown
let reset_shutdown () = Atomic.set shutdown false

(* Worker domains respawned after an injected (or real) worker death. *)
let respawn_lock = Mutex.create ()
let respawns = ref 0

let note_respawns n =
  Mutex.lock respawn_lock;
  respawns := !respawns + n;
  Mutex.unlock respawn_lock

let worker_respawns () =
  Mutex.lock respawn_lock;
  let n = !respawns in
  Mutex.unlock respawn_lock;
  n

(* Banked-replay accounting since process start, [worker_respawns]-style:
   one [bank_replays] tick per group whose banked pass simulated at least
   one fresh configuration, [banked_configs] summing those
   configurations. *)
let bank_lock = Mutex.create ()
let bank_replays_n = ref 0
let banked_configs_n = ref 0

let note_bank configs =
  Mutex.lock bank_lock;
  incr bank_replays_n;
  banked_configs_n := !banked_configs_n + configs;
  Mutex.unlock bank_lock;
  Vmbp_obs.Registry.add m_bank_replays 1;
  Vmbp_obs.Registry.add m_banked_configs configs

let bank_replays () =
  Mutex.lock bank_lock;
  let n = !bank_replays_n in
  Mutex.unlock bank_lock;
  n

let banked_configs () =
  Mutex.lock bank_lock;
  let n = !banked_configs_n in
  Mutex.unlock bank_lock;
  n

let cell ?(tag = "") ?(scale = 1) ?predictor ~cpu ~technique workload =
  { tag; workload; technique; cpu; scale; predictor }

let cell_name c =
  Printf.sprintf "%s/%s/%s/%s%s"
    (Vmbp_workloads.vm_name c.workload.Vmbp_workloads.vm)
    c.workload.Vmbp_workloads.name
    (Technique.name c.technique)
    c.cpu.Cpu_model.name
    (if c.scale = 1 then "" else Printf.sprintf "@%d" c.scale)

(* ------------------------------------------------------------------ *)
(* Shared work queue: one producer, [jobs] consumers.  All cells are
   enqueued before the workers start, but the queue is written for the
   general case: consumers block on the condition until an item arrives or
   the queue is closed. *)

type 'a work_queue = {
  items : 'a Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
}

let queue_create () =
  {
    items = Queue.create ();
    lock = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
  }

let queue_push q x =
  Mutex.lock q.lock;
  Queue.push x q.items;
  Condition.signal q.nonempty;
  Mutex.unlock q.lock;
  Vmbp_obs.Registry.gauge_add g_queue_depth 1.

let queue_close q =
  Mutex.lock q.lock;
  q.closed <- true;
  Condition.broadcast q.nonempty;
  Mutex.unlock q.lock

let queue_take q =
  Mutex.lock q.lock;
  let rec wait () =
    match Queue.take_opt q.items with
    | Some x ->
        Mutex.unlock q.lock;
        Vmbp_obs.Registry.gauge_add g_queue_depth (-1.);
        Some x
    | None ->
        if q.closed then begin
          Mutex.unlock q.lock;
          None
        end
        else begin
          Condition.wait q.nonempty q.lock;
          wait ()
        end
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* The session log: every cell run through this module is recorded so the
   harnesses can dump one machine-readable summary at exit. *)

let log : timed list ref = ref []
let log_lock = Mutex.create ()

(* Stored newest-first; drained in chronological order. *)
let record results =
  Mutex.lock log_lock;
  log := List.rev_append results !log;
  Mutex.unlock log_lock

let drain_log () =
  Mutex.lock log_lock;
  let l = !log in
  log := [];
  Mutex.unlock log_lock;
  List.rev l

(* ------------------------------------------------------------------ *)
(* Trace cache.

   Recorded (workload, technique, scale) executions are retained across
   [run_cells] calls, because the experiment registry revisits the same
   groups under different CPUs.  Only a revisit that finds its group's
   trace here replays it: a group with a single cell to run is never
   recorded ([record_or_direct]), so e.g. the Pentium 4 speedup figure's
   one-cell groups re-run the engine on groups the Celeron figure already
   ran -- on the workload's replayed VM control path, see
   {!Runner.run} -- and exact revisits of a cell hit the full-result cache
   below instead.  Retained event-stream bytes are
   bounded by [trace_cap_mb] with least-recently-used eviction, but
   eviction only recycles the streams: the entry stays in the list as a
   kilobyte-sized summary whose per-configuration memo tables (see
   {!Trace.replay_memo}) still answer every predictor/I-cache combination
   the trace ever served.  Most cross-experiment revisits repeat a
   configuration (the counter figures and sweeps reuse the speedup
   figures' CPUs), so they stay free no matter how small the cap is; only
   a genuinely new configuration on an evicted group pays for re-recording.
   Workload identity is physical: the registry's workload values persist
   for the process lifetime, while freshly constructed (e.g. synthetic
   test) workloads can never alias a stale trace. *)

type cache_entry = {
  ce_workload : Vmbp_workloads.t;
  ce_technique : Technique.t;
  ce_scale : int;
  ce_trace : Runner.trace;
  ce_bytes : int;
  mutable ce_stamp : int;
  mutable ce_refs : int;  (* groups currently replaying from this trace *)
  mutable ce_dead : bool;
      (* evicted: recycle storage once ce_refs = 0; the entry itself stays
         listed as a memo-only summary *)
}

let cache : cache_entry list ref = ref []
let cache_bytes = ref 0
let cache_clock = ref 0
let cache_lock = Mutex.create ()

let cap_bytes () = !trace_cap_mb * 1024 * 1024

let same_group a b =
  a.workload == b.workload && a.scale = b.scale && a.technique = b.technique

let entry_matches c e =
  e.ce_workload == c.workload && e.ce_scale = c.scale
  && e.ce_technique = c.technique

(* Deferred storage recycling: an evicted trace may still be feeding another
   domain's replays, so eviction only marks the entry dead and the last
   group using it returns the chunks to the pool. *)
let entry_drop_locked e =
  if e.ce_dead && e.ce_refs = 0 then Runner.release_trace e.ce_trace

(* [`Live e] holds a reference on the entry's storage (the caller must
   [cache_release] it); [`Summary e] is an evicted entry usable only
   through {!Runner.replay_memo}, which needs no reference. *)
let cache_find c =
  Mutex.lock cache_lock;
  let found = List.find_opt (entry_matches c) !cache in
  let found =
    match found with
    | Some e when not e.ce_dead ->
        incr cache_clock;
        e.ce_stamp <- !cache_clock;
        e.ce_refs <- e.ce_refs + 1;
        `Live e
    | Some e -> `Summary e
    | None -> `Miss
  in
  Mutex.unlock cache_lock;
  (match found with
  | `Live _ -> Vmbp_obs.Registry.add m_cache_live_hits 1
  | `Summary _ -> Vmbp_obs.Registry.add m_cache_memo_hits 1
  | `Miss -> Vmbp_obs.Registry.add m_cache_misses 1);
  found

let cache_release e =
  Mutex.lock cache_lock;
  e.ce_refs <- e.ce_refs - 1;
  entry_drop_locked e;
  Mutex.unlock cache_lock

(* Eviction demotes the least-recently-used live entry to a summary: its
   stream storage is recycled but its memo tables keep answering repeat
   configurations. *)
let evict_to_cap_locked () =
  let cap = cap_bytes () in
  let continue = ref true in
  while !cache_bytes > cap && !continue do
    match List.filter (fun e -> not e.ce_dead) !cache with
    | [] | [ _ ] -> continue := false
    | live ->
        let lru =
          List.fold_left
            (fun acc e -> if e.ce_stamp < acc.ce_stamp then e else acc)
            (List.hd live) (List.tl live)
        in
        cache_bytes := !cache_bytes - lru.ce_bytes;
        lru.ce_dead <- true;
        Vmbp_obs.Registry.add m_cache_evictions 1;
        entry_drop_locked lru
  done

(* Returns the entry now holding the group's trace, with one reference held
   for the caller.  If another domain inserted the same group first, the
   caller's freshly recorded duplicate is recycled and the existing live
   entry is used instead.  A matching dead summary (the re-record path:
   storage was evicted and then a new configuration arrived) is superseded:
   the fresh entry is consed in front of it, and the stale summary is
   unlisted once no domain still reads its memos. *)
let cache_insert c trace =
  let bytes = Runner.trace_bytes trace in
  Mutex.lock cache_lock;
  let entry =
    match
      List.find_opt (fun e -> entry_matches c e && not e.ce_dead) !cache
    with
    | Some e ->
        Runner.release_trace trace;
        incr cache_clock;
        e.ce_stamp <- !cache_clock;
        e.ce_refs <- e.ce_refs + 1;
        e
    | None ->
        incr cache_clock;
        let e =
          {
            ce_workload = c.workload;
            ce_technique = c.technique;
            ce_scale = c.scale;
            ce_trace = trace;
            ce_bytes = bytes;
            ce_stamp = !cache_clock;
            ce_refs = 1;
            ce_dead = false;
          }
        in
        cache :=
          e :: List.filter (fun o -> not (entry_matches c o && o.ce_dead)) !cache;
        cache_bytes := !cache_bytes + bytes;
        Vmbp_obs.Registry.add m_cache_insertions 1;
        evict_to_cap_locked ();
        e
  in
  Mutex.unlock cache_lock;
  entry

let clear_trace_cache () =
  Mutex.lock cache_lock;
  List.iter
    (fun e ->
      e.ce_dead <- true;
      entry_drop_locked e)
    !cache;
  cache := [];
  cache_bytes := 0;
  Mutex.unlock cache_lock;
  Runner.clear_vm_paths ()

let trace_cache_bytes () =
  Mutex.lock cache_lock;
  let b = !cache_bytes in
  Mutex.unlock cache_lock;
  b

(* ------------------------------------------------------------------ *)
(* Cell identity for the resume journal.

   The key is human-readable and parameter-complete (a collapsed label
   like "static repl" must not alias two different replica counts); the
   fingerprint is a digest of everything else that could change a cell's
   numbers between runs -- scale, the full CPU profile, the predictor
   override, the trace setting -- so a journal written under one
   configuration is never wrongly served to another. *)

let predictor_override_descriptor = function
  | Some p -> Predictor.descriptor p
  | None -> "cpu"

let cpu_descriptor (cpu : Cpu_model.t) =
  Printf.sprintf "%s{%d,%g,%d,%d,%s,%s}" cpu.Cpu_model.name cpu.Cpu_model.mhz
    cpu.Cpu_model.ipc cpu.Cpu_model.mispredict_penalty
    cpu.Cpu_model.icache_miss_penalty
    (Predictor.descriptor cpu.Cpu_model.predictor)
    (Icache.descriptor cpu.Cpu_model.icache)

let cell_key c =
  Printf.sprintf "%s|%s/%s|%s|%s|s%d|%s" c.tag
    (Vmbp_workloads.vm_name c.workload.Vmbp_workloads.vm)
    c.workload.Vmbp_workloads.name
    (Technique.descriptor c.technique)
    c.cpu.Cpu_model.name c.scale
    (predictor_override_descriptor c.predictor)

let config_fingerprint c =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          [
            "vmbp-journal/1";
            string_of_int c.scale;
            cpu_descriptor c.cpu;
            Technique.descriptor c.technique;
            predictor_override_descriptor c.predictor;
            (if !trace_cap_mb > 0 then "traced" else "direct");
          ]))

(* ------------------------------------------------------------------ *)
(* Full-result cache.

   Experiment batches revisit cells verbatim: the counter figures re-run
   rows of the speedup figures' (workload, technique, CPU) grid, and the
   ablations share cells with the main tables.  A finished cell's payload
   is a few hundred bytes (metric counts, cycles, the session output), so
   every successful outcome is kept for the process lifetime keyed by the
   full configuration, and an exact revisit is served with no simulation
   at all.  Cached runs are treated as immutable by every consumer.
   Workload identity is physical, like the trace cache's: a freshly
   constructed workload can never alias a cached result.  Bypassed under
   [--self-check] (every cell must run a fresh lockstep execution) and
   when caching is disabled outright ([--trace-cap-mb 0]). *)

let result_cache : (string, Vmbp_workloads.t * Runner.run) Hashtbl.t =
  Hashtbl.create 1024

let result_lock = Mutex.create ()

let result_key c =
  Printf.sprintf "%s/%s|%s|%s|s%d|%s"
    (Vmbp_workloads.vm_name c.workload.Vmbp_workloads.vm)
    c.workload.Vmbp_workloads.name
    (Technique.descriptor c.technique)
    (cpu_descriptor c.cpu) c.scale
    (predictor_override_descriptor c.predictor)

let result_enabled () = (not !self_check) && !trace_cap_mb > 0

(* VM path replay ({!Runner.run}'s [path_cap]) follows the same gate, so
   [--self-check] and [--trace-cap-mb 0] stay all-live references; the
   trace cap also bounds the cached path bytes. *)
let path_cap () = if result_enabled () then Some (cap_bytes ()) else None

let result_find c =
  if not (result_enabled ()) then None
  else begin
    Mutex.lock result_lock;
    let found =
      match Hashtbl.find_opt result_cache (result_key c) with
      | Some (w, run) when w == c.workload -> Some run
      | _ -> None
    in
    Mutex.unlock result_lock;
    if found <> None then Vmbp_obs.Registry.add m_result_hits 1;
    found
  end

(* Only genuinely computed successes are stored: journal-served outcomes
   were computed under a possibly different configuration of a previous
   process, and failures may be transient (timeouts, injected faults). *)
let result_store c (t : timed) =
  if result_enabled () && not t.from_journal then
    match t.outcome with
    | Ok run ->
        Mutex.lock result_lock;
        let key = result_key c in
        if not (Hashtbl.mem result_cache key) then
          Hashtbl.add result_cache key (c.workload, run);
        Mutex.unlock result_lock
    | Error _ -> ()

let clear_result_cache () =
  Mutex.lock result_lock;
  Hashtbl.reset result_cache;
  Mutex.unlock result_lock;
  Runner.clear_vm_paths ()

let journal : Journal.t option ref = ref None

let set_journal ~file ~resume =
  (match !journal with Some j -> Journal.close j | None -> ());
  journal := Some (Journal.open_ ~resume file)

let clear_journal () =
  (match !journal with Some j -> Journal.close j | None -> ());
  journal := None

let journal_stats () = Option.map Journal.stats !journal

(* Persist a freshly computed cell.  Successes are always worth keeping.
   Failures are kept only when they look deterministic: a timeout is
   wall-clock luck and a chaos-armed run's failures are injected, so both
   must be recomputed on resume rather than replayed from disk. *)
let journal_append c (t : timed) =
  match !journal with
  | None -> ()
  | Some j ->
      let worthy =
        (not t.from_journal)
        && t.attempts > 0
        &&
        match t.outcome with
        | Ok _ -> true
        | Error _ -> (not t.timed_out) && not (Faults.armed ())
      in
      if worthy then
        Vmbp_obs.Span.with_ ~name:"journal-append"
          ~args:[ ("cell", cell_name c) ]
        @@ fun () ->
        let outcome =
          match t.outcome with
          | Ok r ->
              Ok
                {
                  Journal.metrics =
                    Metrics.copy r.Runner.result.Engine.metrics;
                  steps = r.Runner.result.Engine.steps;
                  output = r.Runner.output;
                }
          | Error msg -> Error msg
        in
        Journal.append j
          {
            Journal.key = cell_key c;
            fingerprint = config_fingerprint c;
            outcome;
            attempts = t.attempts;
            timed_out = t.timed_out;
          }

(* Rebuild the exact [timed] a live run would have produced from a journal
   entry.  Only integer event counters ever touch the disk; cycles and
   seconds are recomputed through the same {!Cpu_model} arithmetic as a
   live run, so a resumed report is byte-identical by construction.  A
   journaled success is by definition untrapped ({!Runner.run} turns traps
   into [Error] cells before they reach the journal). *)
let timed_of_entry c (e : Journal.entry) =
  let outcome =
    match e.Journal.outcome with
    | Ok s ->
        let m = Metrics.copy s.Journal.metrics in
        Ok
          {
            Runner.workload = c.workload;
            technique = c.technique;
            cpu = c.cpu;
            result =
              {
                Engine.metrics = m;
                cycles = Cpu_model.cycles c.cpu m;
                seconds = Cpu_model.seconds c.cpu m;
                steps = s.Journal.steps;
                trapped = None;
              };
            output = s.Journal.output;
          }
    | Error msg -> Error msg
  in
  {
    cell = c;
    outcome;
    wall_seconds = 0.;
    serve_seconds = 0.;
    mode = Replay;
    attempts = e.Journal.attempts;
    timed_out = e.Journal.timed_out;
    from_journal = true;
    audited = false;
  }

(* ------------------------------------------------------------------ *)
(* Content-addressed result store.

   Where the journal is a per-run crash log (resume only trusts entries
   from a previous process), the store is a durable cross-run result
   service: cells are addressed by the tagless parameter-complete key --
   the same identity the full-result cache uses -- so a store warmed by a
   grid run serves any later query for the same configuration, whatever
   experiment tag asked for it.  Both layers share the record codec
   ({!Vmbp_store.Cellrec}) and the configuration fingerprint, so a
   store-served cell is byte-identical to a freshly computed one by the
   same argument as a journal-resumed cell. *)

(* The store sits below the fault harness in the library graph, so the
   [store-io] chaos point reaches it through this hook. *)
let () = Vmbp_store.Store.io_fault_hook := fun () -> Faults.fire Faults.Store_io

let store : Vmbp_store.Store.t option ref = ref None

let set_store ?shards dir =
  (match !store with Some s -> Vmbp_store.Store.close s | None -> ());
  store := Some (Vmbp_store.Store.open_ ?shards dir)

let clear_store () =
  (match !store with Some s -> Vmbp_store.Store.close s | None -> ());
  store := None

let store_stats () = Option.map Vmbp_store.Store.stats !store
let store_compact () = Option.iter Vmbp_store.Store.compact !store

(* The store key is the full-result cache's identity: tagless, with the
   complete CPU profile spelled out. *)
let store_key = result_key

(* Serve one cell from the store, if present.  Served cells carry
   [from_journal = true]: the flag means "reconstructed from disk, no
   simulator ran", and every downstream policy (no re-append, no result
   cache, no audit) wants exactly that treatment. *)
let store_lookup c =
  match !store with
  | None -> None
  | Some s -> (
      let t0 = Vmbp_sim.Env.now () in
      match
        Vmbp_store.Store.lookup s ~key:(store_key c)
          ~fingerprint:(config_fingerprint c)
      with
      | Some e ->
          let t = timed_of_entry c e in
          Some { t with serve_seconds = Vmbp_sim.Env.now () -. t0 }
      | None -> None)

(* Persist a freshly computed success.  Only [Ok] outcomes are stored --
   failures may be transient and a service must never serve one from
   cache -- and an entry already present (the usual case when the same
   cell appears twice in one batch) is not appended again. *)
let store_append c (t : timed) =
  match !store with
  | None -> ()
  | Some s -> (
      match t.outcome with
      | Ok r when (not t.from_journal) && t.attempts > 0 ->
          let key = store_key c and fingerprint = config_fingerprint c in
          if not (Vmbp_store.Store.mem s ~key ~fingerprint) then
            Vmbp_obs.Span.with_ ~name:"store-append"
              ~args:[ ("key", key) ]
              (fun () ->
                Vmbp_store.Store.append s
                  {
                    Vmbp_store.Cellrec.key;
                    fingerprint;
                    outcome =
                      Ok
                        {
                          Vmbp_store.Cellrec.metrics =
                            Metrics.copy r.Runner.result.Engine.metrics;
                          steps = r.Runner.result.Engine.steps;
                          output = r.Runner.output;
                        };
                    attempts = t.attempts;
                    timed_out = t.timed_out;
                  })
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Running *)

exception Cell_deadline

(* Run one cell attempt under the watchdog/retry policy.  The body gets a
   poll hook (threaded into the engine's step loop and the trace replay's
   token loop) that raises once the attempt's deadline passes, so direct
   and replayed cells both honour [--cell-timeout] without preemption.
   Deterministic failures ([Runner.Run_failed] traps, or any [Error]
   return) are never retried; a timeout is not retried either (the next
   attempt would hit the same deadline); everything else -- including the
   [cell-raise] chaos point -- counts as transient and is retried up to
   [cell_retries] times with jittered exponential backoff.  Returns
   [(outcome, attempts, timed_out)]. *)
let supervised body =
  let retries = max 0 !cell_retries in
  let rec attempt n =
    let poll =
      let t = !cell_timeout in
      if t > 0. then begin
        let deadline = Vmbp_sim.Env.now () +. t in
        Some
          (fun () ->
            progress_tick ();
            if Vmbp_sim.Env.now () > deadline then raise Cell_deadline)
      end
      else if !progress then Some progress_tick
      else None
    in
    let verdict =
      match
        (* The slow-cell chaos point stalls after the deadline is armed:
           the body's very first poll then converts the stall into a
           timeout, which is exactly the hang the watchdog exists for. *)
        Faults.slow_cell ();
        Faults.cell_raise ();
        (body ?poll () : (Runner.run, string) result)
      with
      | o -> `Done o
      | exception Faults.Worker_killed -> raise Faults.Worker_killed
      | exception Runner.Run_failed msg -> `Done (Error msg)
      | exception Cell_deadline -> `Timeout
      | exception exn -> `Transient (Printexc.to_string exn)
    in
    match verdict with
    | `Done o -> (o, n, false)
    | `Timeout ->
        ( Error (Printf.sprintf "timed out after %gs" !cell_timeout),
          n,
          true )
    | `Transient msg ->
        if n > retries then (Error msg, n, false)
        else begin
          let base = !retry_backoff_s *. float_of_int (1 lsl (n - 1)) in
          Vmbp_sim.Env.sleep (base *. (0.5 +. Faults.jitter ()));
          attempt (n + 1)
        end
  in
  attempt 1

(* Per-cell allocation pressure, from the domain-local GC counters; the
   delta is this domain's minor allocation while the cell ran, which is
   attributable because a cell never migrates between domains. *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let run_cell c =
  let t0 = Vmbp_sim.Env.now () in
  let w0 = minor_words () in
  let outcome, attempts, timed_out =
    Vmbp_obs.Span.with_ ~name:"cell" ~args:[ ("cell", cell_name c) ] (fun () ->
        if !self_check then
          supervised (fun ?poll () ->
              Runner.run_checked ~scale:c.scale ?poll ?predictor:c.predictor
                ~cell:(cell_key c) ~cpu:c.cpu ~technique:c.technique c.workload)
        else
          supervised (fun ?poll () ->
              Ok
                (Runner.run ~scale:c.scale ?poll ?predictor:c.predictor
                   ?path_cap:(path_cap ()) ~cpu:c.cpu ~technique:c.technique
                   c.workload)))
  in
  Vmbp_obs.Registry.observe h_cell_minor_words (minor_words () -. w0);
  {
    cell = c;
    outcome;
    wall_seconds = Vmbp_sim.Env.now () -. t0;
    serve_seconds = 0.;
    mode = Direct;
    attempts;
    timed_out;
    from_journal = false;
    audited = !self_check;
  }

let replay_cell mode tr c =
  let t0 = Vmbp_sim.Env.now () in
  let w0 = minor_words () in
  let outcome, attempts, timed_out =
    Vmbp_obs.Span.with_ ~name:"replay" ~args:[ ("cell", cell_name c) ]
      (fun () ->
        supervised (fun ?poll () ->
            Runner.replay ?poll ?predictor:c.predictor ~cpu:c.cpu tr))
  in
  Vmbp_obs.Registry.observe h_cell_minor_words (minor_words () -. w0);
  {
    cell = c;
    outcome;
    wall_seconds = Vmbp_sim.Env.now () -. t0;
    serve_seconds = 0.;
    mode;
    attempts;
    timed_out;
    from_journal = false;
    audited = false;
  }

(* Replay every cell purely from an evicted entry's memo tables.  All or
   nothing: a group whose cells mix known and new configurations re-records
   instead, so the one engine execution also refreshes the stream for its
   siblings. *)
let memo_cells entry arr idxs =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | i :: rest -> (
        let c = arr.(i) in
        let t0 = Vmbp_sim.Env.now () in
        match
          Runner.replay_memo ?predictor:c.predictor ~cpu:c.cpu entry.ce_trace
        with
        | None -> None
        | Some outcome ->
            let wall = Vmbp_sim.Env.now () -. t0 in
            go
              (( i,
                 {
                   cell = c;
                   outcome;
                   wall_seconds = wall;
                   (* A memo-served cell ran no simulator: its whole wall
                      time is serving from the summary tables. *)
                   serve_seconds = wall;
                   mode = Replay;
                   attempts = 1;
                   timed_out = false;
                   from_journal = false;
                   audited = false;
                 } )
              :: acc)
              rest)
  in
  go [] idxs

(* ------------------------------------------------------------------ *)
(* Sampled auditing of the fast paths.

   Cells served without a fresh VM execution -- trace replays and
   memo-served summaries (both [mode = Replay]) -- are the ones a silent
   fast-path bug would corrupt, so a deterministic sample of them is
   re-run directly through [Runner.run_result] and compared field for
   field.  The sample is keyed on the cell key alone: the same cells are
   audited on every run of the same grid, with any job count. *)

let same_run (a : Runner.run) (b : Runner.run) =
  a.Runner.result.Engine.metrics = b.Runner.result.Engine.metrics
  && a.Runner.result.Engine.cycles = b.Runner.result.Engine.cycles
  && a.Runner.result.Engine.seconds = b.Runner.result.Engine.seconds
  && a.Runner.result.Engine.steps = b.Runner.result.Engine.steps
  && a.Runner.result.Engine.trapped = b.Runner.result.Engine.trapped
  && a.Runner.output = b.Runner.output

let counters_of_run (r : Runner.run) =
  let m = r.Runner.result.Engine.metrics in
  {
    Audit.predictions = m.Metrics.indirect_branches;
    pred_hits = m.Metrics.indirect_branches - m.Metrics.mispredicts;
    mispredicts = m.Metrics.mispredicts;
    vm_branch_mispredicts = m.Metrics.vm_branch_mispredicts;
    icache_fetches = m.Metrics.icache_fetches;
    icache_hits = m.Metrics.icache_fetches - m.Metrics.icache_misses;
    icache_misses = m.Metrics.icache_misses;
  }

let outcome_counters = function
  | Ok r -> counters_of_run r
  | Error _ -> Audit.zero_counters

let outcome_summary = function
  | Ok (r : Runner.run) ->
      let m = r.Runner.result.Engine.metrics in
      Printf.sprintf "ok (cycles %g, mispredicts %d, icache misses %d)"
        r.Runner.result.Engine.cycles m.Metrics.mispredicts
        m.Metrics.icache_misses
  | Error msg -> Printf.sprintf "error (%s)" msg

let audit_crosscheck c (t : timed) =
  if
    t.from_journal || t.mode <> Replay || !self_check
    || not (Audit.sampled ~key:(cell_key c) ~rate:!audit_sample)
  then t
  else begin
    let t0 = Vmbp_sim.Env.now () in
    let direct =
      Vmbp_obs.Span.with_ ~name:"audit-crosscheck"
        ~args:[ ("cell", cell_name c) ]
        (fun () ->
          Runner.run_result ~scale:c.scale ?predictor:c.predictor ~cpu:c.cpu
            ~technique:c.technique c.workload)
    in
    let agree =
      match (t.outcome, direct) with
      | Ok a, Ok b -> same_run a b
      | Error a, Error b -> a = b
      | _ -> false
    in
    let wall_seconds = t.wall_seconds +. (Vmbp_sim.Env.now () -. t0) in
    if agree then begin
      Audit.note_audited ();
      { t with audited = true; wall_seconds }
    end
    else begin
      let config = Config.make ~cpu:c.cpu ?predictor:c.predictor c.technique in
      let detail =
        Printf.sprintf
          "replayed cell disagrees with a fresh direct run: replay %s, direct \
           %s"
          (outcome_summary t.outcome)
          (outcome_summary direct)
      in
      let d =
        Audit.record_divergence
          {
            Audit.d_cell = cell_key c;
            d_predictor = Config.predictor_kind config;
            d_icache = c.cpu.Cpu_model.icache;
            d_index = -1;
            d_event = None;
            d_fast = outcome_counters t.outcome;
            d_reference = outcome_counters direct;
            d_detail = detail;
            d_artifact = None;
          }
      in
      {
        t with
        audited = true;
        wall_seconds;
        outcome = Error ("audit divergence: " ^ d.Audit.d_detail);
      }
    end
  end

(* One (workload, technique, scale) group: find or record its trace, then
   replay every cell against its own CPU/predictor.  Any recording problem
   (cap exceeded, load/build/run exception) falls back to direct per-cell
   simulation, which reproduces exactly what the pre-trace runner did.
   Every completed cell is journaled the moment its slot is filled, so a
   crash loses at most the group in flight.  Already-filled slots (served
   from the journal, or filled before a degradation rerun) are skipped,
   which makes the group idempotent under fallback. *)
let run_group results arr idxs =
  let finish i t =
    let t = audit_crosscheck arr.(i) t in
    results.(i) <- Some t;
    result_store arr.(i) t;
    Vmbp_obs.Registry.add m_cell_retries (max 0 (t.attempts - 1));
    if t.timed_out then Vmbp_obs.Registry.add m_cell_timeouts 1;
    Vmbp_obs.Registry.observe h_cell_wall t.wall_seconds;
    journal_append arr.(i) t;
    store_append arr.(i) t;
    progress_cell_done ();
    progress_tick ()
  in
  let direct () =
    List.iter
      (fun i -> if results.(i) = None then finish i (run_cell arr.(i)))
      idxs
  in
  (* One banked traversal per group: every distinct pending configuration
     is simulated in a single pass over each of the trace's token streams
     ({!Runner.replay_bank}), so the per-cell replays below are served from
     the memo tables instead of each re-walking the whole trace.  The bank
     runs under the group-level deadline, like recording; any failure (a
     deadline, an invalid configuration) just leaves configurations
     un-memoized, and the per-cell path re-simulates them under its own
     watchdog and reports its own error.  Returns the seconds spent, for
     billing to the group's first live cell. *)
  let bank_group entry idxs =
    match List.filter (fun i -> results.(i) = None) idxs with
    | [] -> 0.
    | pending ->
        let t0 = Vmbp_sim.Env.now () in
        let poll =
          let t = !cell_timeout in
          if t > 0. then begin
            let deadline = t0 +. t in
            Some
              (fun () ->
                progress_tick ();
                if Vmbp_sim.Env.now () > deadline then raise Cell_deadline)
          end
          else if !progress then Some progress_tick
          else None
        in
        (match
           Vmbp_obs.Span.with_ ~name:"bank"
             ~args:[ ("cell", cell_name arr.(List.hd pending)) ]
             (fun () ->
               Runner.replay_bank ?poll
                 ~configs:
                   (List.map
                      (fun i -> (arr.(i).cpu, arr.(i).predictor))
                      pending)
                 entry.ce_trace)
         with
        | fresh -> if fresh > 0 then note_bank fresh
        | exception Faults.Worker_killed -> raise Faults.Worker_killed
        | exception _ -> ());
        Vmbp_sim.Env.now () -. t0
  in
  (* Replay every pending cell of the group from the banked memo tables.
     [extra] -- the group's one engine execution plus the banked traversal
     -- is billed to the first live cell, so summing wall_seconds still
     accounts all work; [first_record] marks the group's first cell as the
     one whose engine run produced the trace. *)
  let replay_group entry ~first_record ~extra idxs =
    let extra = ref (extra +. bank_group entry idxs) in
    List.iteri
      (fun k i ->
        if results.(i) = None then begin
          let timed =
            replay_cell
              (if first_record && k = 0 then Record else Replay)
              entry.ce_trace arr.(i)
          in
          let timed =
            if !extra > 0. then begin
              let e = !extra in
              extra := 0.;
              { timed with wall_seconds = timed.wall_seconds +. e }
            end
            else timed
          in
          finish i timed
        end)
      idxs
  in
  let record_group () =
    let c0 = arr.(List.hd idxs) in
    let t0 = Vmbp_sim.Env.now () in
    (* The record execution serves the whole group but still honours the
       per-cell deadline; a record timeout is caught by [Runner.record]'s
       guard as [`Failed], degrading to direct runs where each cell gets
       its own deadline. *)
    let poll =
      let t = !cell_timeout in
      if t > 0. then begin
        let deadline = t0 +. t in
        Some
          (fun () ->
            progress_tick ();
            if Vmbp_sim.Env.now () > deadline then raise Cell_deadline)
      end
      else if !progress then Some progress_tick
      else None
    in
    match
      Vmbp_obs.Span.with_ ~name:"record"
        ~args:[ ("cell", cell_name c0) ]
        (fun () ->
          Runner.record ~scale:c0.scale ?poll ~cap_bytes:(cap_bytes ())
            ?path_cap:(path_cap ()) ~technique:c0.technique c0.workload)
    with
    | Error (`Overflow | `Failed _) -> direct ()
    | Ok tr ->
        (* Chaos point for the group-level record path: a failure here --
           after recording, before any per-cell guard engages -- must
           degrade to direct runs via the group guard below, never escape
           into the pool. *)
        if Faults.fire Faults.Record_fail then begin
          Runner.release_trace tr;
          raise (Faults.Injected "chaos: injected record failure")
        end;
        let record_seconds = Vmbp_sim.Env.now () -. t0 in
        let entry = cache_insert c0 tr in
        replay_group entry ~first_record:true ~extra:record_seconds idxs;
        cache_release entry
  in
  (* Recording only pays off when the trace serves more than one
     configuration: the recording sink taxes every step, banking decodes
     the stream again, and inserting the trace can evict entries other
     groups would reuse.  A group with at most one unserved cell --
     parameter-sweep points and single-CPU table rows -- is cheaper to
     simulate directly; exact cross-batch revisits of such cells are
     caught by the result cache instead, which costs nothing to fill.
     The choice affects how a cell's numbers are produced, never what
     they are. *)
  let record_or_direct () =
    match List.filter (fun i -> results.(i) = None) idxs with
    | [] | [ _ ] -> direct ()
    | _ -> record_group ()
  in
  (* Serve exact revisits from the full-result cache before any engine or
     trace machinery engages.  Served cells are [Replay]-mode (no VM
     execution produced them here), so sampled auditing covers this fast
     path exactly like trace replays. *)
  let serve_cached () =
    List.iter
      (fun i ->
        if results.(i) = None then begin
          let t0 = Vmbp_sim.Env.now () in
          match result_find arr.(i) with
          | None -> ()
          | Some run ->
              let wall = Vmbp_sim.Env.now () -. t0 in
              finish i
                {
                  cell = arr.(i);
                  outcome = Ok run;
                  wall_seconds = wall;
                  serve_seconds = wall;
                  mode = Replay;
                  attempts = 1;
                  timed_out = false;
                  from_journal = false;
                  audited = false;
                }
        end)
      idxs
  in
  let traced () =
    (* Self-check compares simulators event by event, which only a fresh
       engine execution per cell provides: the trace fast path is
       exactly what is under audit, so it is bypassed. *)
    if !self_check || !trace_cap_mb <= 0 then direct ()
    else
      let c0 = arr.(List.hd idxs) in
      match cache_find c0 with
      | `Live entry ->
          replay_group entry ~first_record:false ~extra:0. idxs;
          cache_release entry
      | `Summary entry -> (
          match
            memo_cells entry arr
              (List.filter (fun i -> results.(i) = None) idxs)
          with
          | Some timed -> List.iter (fun (i, t) -> finish i t) timed
          | None -> record_or_direct ())
      | `Miss -> record_or_direct ()
  in
  (* Group-level guard: anything raised outside the per-cell guards
     (recording machinery, cache bookkeeping, the injected record fault)
     degrades this group to per-cell direct runs instead of escaping into
     the pool.  Worker death is the deliberate exception -- it must escape
     to exercise the supervision layer above. *)
  progress_busy (cell_name arr.(List.hd idxs));
  Vmbp_obs.Registry.gauge_add g_busy_workers 1.;
  Fun.protect
    ~finally:(fun () ->
      Vmbp_obs.Registry.gauge_add g_busy_workers (-1.);
      progress_idle ())
    (fun () ->
      match
        serve_cached ();
        traced ()
      with
      | () -> ()
      | exception Faults.Worker_killed -> raise Faults.Worker_killed
      | exception _ -> direct ())

(* Group cell indices by (workload, technique, scale), preserving first-
   occurrence order and ascending indices within each group. *)
let group_cells arr =
  let groups : (cell * int list ref) list ref = ref [] in
  Array.iteri
    (fun i c ->
      match List.find_opt (fun (c0, _) -> same_group c0 c) !groups with
      | Some (_, l) -> l := i :: !l
      | None -> groups := (c, ref [ i ]) :: !groups)
    arr;
  List.rev_map (fun (_, l) -> List.rev !l) !groups

(* A cell skipped because shutdown was requested before it ran.
   [attempts = 0] keeps it out of the journal: nothing was computed. *)
let interrupted_cell c =
  {
    cell = c;
    outcome = Error "interrupted before this cell ran (partial report)";
    wall_seconds = 0.;
    serve_seconds = 0.;
    mode = Direct;
    attempts = 0;
    timed_out = false;
    from_journal = false;
    audited = false;
  }

(* A group abandoned after the respawn budget ran out. *)
let abandoned_cell c =
  {
    cell = c;
    outcome = Error "worker died repeatedly on this cell's group";
    wall_seconds = 0.;
    serve_seconds = 0.;
    mode = Direct;
    attempts = 0;
    timed_out = false;
    from_journal = false;
    audited = false;
  }

(* How many rounds of worker respawning the pool tolerates before it gives
   the surviving groups up as poisoned.  Far above anything a real fault
   produces; purely a livelock backstop for probabilistic chaos specs. *)
let max_respawn_rounds = 64

(* Pool supervision.  A worker that hits [Worker_killed] stops consuming
   the queue -- from the pool's point of view the domain is dead -- but
   first parks its group on the orphan list.  After the round's domains
   are joined, the supervisor respawns a fresh pool over the orphans plus
   whatever the dead workers left in the queue, so queued cells survive
   any number of worker deaths (up to the livelock backstop). *)
let run_pool ~jobs results arr groups =
  let rec round n groups =
    let q = queue_create () in
    List.iter (fun g -> queue_push q g) groups;
    queue_close q;
    let orphan_lock = Mutex.create () in
    let orphans = ref [] in
    let worker () =
      let rec loop () =
        if shutting_down () then ()
        else
          match queue_take q with
          | None -> ()
          | Some g -> (
              (* Distinct groups: no two domains ever write the same
                 index. *)
              match
                Faults.worker_death ();
                run_group results arr g
              with
              | () -> loop ()
              | exception Faults.Worker_killed ->
                  Mutex.lock orphan_lock;
                  orphans := g :: !orphans;
                  Mutex.unlock orphan_lock)
      in
      loop ()
    in
    let spawned = min (jobs - 1) (List.length groups - 1) in
    let domains = Array.init spawned (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    (* Anything still in the queue was stranded by dying workers. *)
    let rec drain acc =
      match queue_take q with Some g -> drain (g :: acc) | None -> List.rev acc
    in
    let pending = List.rev !orphans @ drain [] in
    if pending <> [] && not (shutting_down ()) then begin
      note_respawns (List.length !orphans);
      if n >= max_respawn_rounds then
        List.iter
          (fun g ->
            match
              Faults.worker_death ();
              run_group results arr g
            with
            | () -> ()
            | exception Faults.Worker_killed ->
                List.iter
                  (fun i ->
                    if results.(i) = None then
                      results.(i) <- Some (abandoned_cell arr.(i)))
                  g)
          pending
      else round (n + 1) pending
    end
  in
  round 0 groups

let run_cells ?jobs cells =
  let jobs =
    max 1 (match jobs with Some j -> j | None -> !default_jobs)
  in
  let arr = Array.of_list cells in
  let results = Array.make (Array.length arr) None in
  (* Resume pre-pass: serve journaled cells before planning any work, so a
     fully journaled group neither records nor replays anything. *)
  progress_begin (Array.length arr);
  (match !journal with
  | None -> ()
  | Some j ->
      Vmbp_obs.Span.with_ ~name:"journal-serve" (fun () ->
          Array.iteri
            (fun i c ->
              let t0 = Vmbp_sim.Env.now () in
              match
                Journal.lookup j ~key:(cell_key c)
                  ~fingerprint:(config_fingerprint c)
              with
              | Some e ->
                  let t = timed_of_entry c e in
                  (* A journal-served cell re-ran no simulator; the lookup
                     and reconstruction time is all it cost. *)
                  let serve = Vmbp_sim.Env.now () -. t0 in
                  results.(i) <- Some { t with serve_seconds = serve };
                  progress_cell_done ()
              | None -> ())
            arr));
  (* Store pre-pass: same shape as the journal's, consulted second so an
     installed journal keeps its resume semantics (and its stats) for
     cells both layers hold. *)
  (match !store with
  | None -> ()
  | Some _ ->
      Vmbp_obs.Span.with_ ~name:"store-serve" (fun () ->
          Array.iteri
            (fun i c ->
              if results.(i) = None then
                match store_lookup c with
                | Some t ->
                    results.(i) <- Some t;
                    progress_cell_done ()
                | None -> ())
            arr));
  let groups =
    List.filter_map
      (fun g ->
        match List.filter (fun i -> results.(i) = None) g with
        | [] -> None
        | g -> Some g)
      (group_cells arr)
  in
  let ngroups = List.length groups in
  if ngroups = 0 then ()
  else if jobs = 1 || ngroups <= 1 then
    (* Sequential path, bit-for-bit the reference for the pool.  A worker
       death here has no pool above it to respawn into, so it escapes
       [run_cells] entirely -- deliberately: it is the fault harness's
       stand-in for a killed process (the journal keeps everything
       completed so far; the harness maps it to a resumable exit). *)
    List.iter
      (fun g ->
        if not (shutting_down ()) then begin
          Faults.worker_death ();
          run_group results arr g
        end)
      groups
  else run_pool ~jobs results arr groups;
  progress_end ();
  let out =
    Array.to_list
      (Array.mapi
         (fun i r ->
           match r with
           | Some r -> r
           | None ->
               (* Only a graceful shutdown leaves holes: the cell was
                  skipped, and the harness marks the report partial. *)
               interrupted_cell arr.(i))
         results)
  in
  record out;
  out

let matrix ?(scale = 1) ?jobs ?(tag = "matrix") ~cpu ~techniques workloads =
  let cells =
    List.concat_map
      (fun w ->
        List.map (fun t -> cell ~tag ~scale ~cpu ~technique:t w) techniques)
      workloads
  in
  let results = run_cells ?jobs cells in
  let nt = List.length techniques in
  let rec regroup ws rs =
    match ws with
    | [] -> []
    | w :: ws' ->
        let rec split k acc rs =
          if k = 0 then (List.rev acc, rs)
          else
            match rs with
            | r :: rs' -> split (k - 1) (r :: acc) rs'
            | [] -> assert false
        in
        let row, rest = split nt [] rs in
        (w, List.map (fun r -> (r.cell.technique, r.outcome)) row)
        :: regroup ws' rest
  in
  regroup workloads results

(* ------------------------------------------------------------------ *)
(* JSON summary *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let json_of_timed t =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"tag\":\"%s\"" (json_escape t.cell.tag);
  add ",\"vm\":\"%s\""
    (json_escape (Vmbp_workloads.vm_name t.cell.workload.Vmbp_workloads.vm));
  add ",\"workload\":\"%s\""
    (json_escape t.cell.workload.Vmbp_workloads.name);
  add ",\"technique\":\"%s\"" (json_escape (Technique.name t.cell.technique));
  add ",\"cpu\":\"%s\"" (json_escape t.cell.cpu.Cpu_model.name);
  add ",\"scale\":%d" t.cell.scale;
  (match t.cell.predictor with
  | Some p -> add ",\"predictor\":\"%s\"" (json_escape (Predictor.kind_name p))
  | None -> ());
  (match t.outcome with
  | Ok r ->
      let m = r.Runner.result.Engine.metrics in
      add ",\"ok\":true";
      add ",\"cycles\":%s" (json_float r.Runner.result.Engine.cycles);
      add ",\"mispredict_rate\":%s"
        (json_float (Metrics.misprediction_rate m));
      add ",\"mispredicts\":%d" m.Metrics.mispredicts;
      add ",\"icache_misses\":%d" m.Metrics.icache_misses;
      add ",\"vm_instrs\":%d" m.Metrics.vm_instrs;
      add ",\"code_bytes\":%d" m.Metrics.code_bytes
  | Error msg -> add ",\"ok\":false,\"error\":\"%s\"" (json_escape msg));
  add ",\"mode\":\"%s\"" (mode_name t.mode);
  add ",\"attempts\":%d" t.attempts;
  add ",\"timed_out\":%b" t.timed_out;
  add ",\"from_journal\":%b" t.from_journal;
  if t.audited then add ",\"audited\":true";
  add ",\"wall_seconds\":%s" (json_float t.wall_seconds);
  add ",\"serve_seconds\":%s" (json_float t.serve_seconds);
  add "}";
  Buffer.contents b

let json_summary ?jobs results =
  let jobs = match jobs with Some j -> max 1 j | None -> !default_jobs in
  let total = List.fold_left (fun a t -> a +. t.wall_seconds) 0. results in
  let wall m =
    List.fold_left
      (fun a t -> if t.mode = m then a +. t.wall_seconds else a)
      0. results
  in
  (* [engine_runs] counts cells whose numbers came from a fresh VM
     execution: every live direct cell plus one per recorded group.
     Replayed and journal-served cells re-ran no VM semantics; cells
     skipped by a shutdown ([attempts = 0]) ran nothing at all. *)
  let live m =
    List.length
      (List.filter
         (fun t -> t.mode = m && (not t.from_journal) && t.attempts > 0)
         results)
  in
  let countp p = List.length (List.filter p results) in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"vmbp-cells/7\"";
  Buffer.add_string b (Printf.sprintf ",\"jobs\":%d" jobs);
  Buffer.add_string b
    (Printf.sprintf ",\"cells\":%d" (List.length results));
  Buffer.add_string b
    (Printf.sprintf ",\"engine_runs\":%d" (live Direct + live Record));
  Buffer.add_string b (Printf.sprintf ",\"replays\":%d" (live Replay));
  Buffer.add_string b
    (Printf.sprintf ",\"from_journal\":%d"
       (countp (fun t -> t.from_journal)));
  Buffer.add_string b
    (Printf.sprintf ",\"retries\":%d"
       (List.fold_left (fun a t -> a + max 0 (t.attempts - 1)) 0 results));
  Buffer.add_string b
    (Printf.sprintf ",\"timeouts\":%d" (countp (fun t -> t.timed_out)));
  Buffer.add_string b
    (Printf.sprintf ",\"interrupted\":%d"
       (countp (fun t -> t.attempts = 0 && not t.from_journal)));
  Buffer.add_string b
    (Printf.sprintf ",\"injected_faults\":%d" (Faults.total_injected ()));
  Buffer.add_string b
    (Printf.sprintf ",\"worker_respawns\":%d" (worker_respawns ()));
  (* vmbp-cells/5: banked-replay counters since process start --
     [bank_replays] counts single-pass group traversals that simulated at
     least one fresh configuration, [banked_configs] the configurations
     those passes simulated. *)
  Buffer.add_string b
    (Printf.sprintf ",\"bank_replays\":%d" (bank_replays ()));
  Buffer.add_string b
    (Printf.sprintf ",\"banked_configs\":%d" (banked_configs ()));
  (* vmbp-cells/6: decode-once translation counters since process start --
     [translations] counts full layout translations built by the engine
     (plan-cache misses and uncacheable profiled runs), [plan_reuses]
     counts translations instantiated from a cached plan by array blits,
     [result_hits] counts cells served verbatim from the full-result
     cache, and [translate_wall_seconds] is the wall clock spent building
     or instantiating translations. *)
  let registry_counter name =
    match Vmbp_obs.Registry.find_counter name with
    | Some n -> Int64.to_int n
    | None -> 0
  in
  Buffer.add_string b
    (Printf.sprintf ",\"translations\":%d"
       (registry_counter "engine.translations"));
  Buffer.add_string b
    (Printf.sprintf ",\"plan_reuses\":%d"
       (registry_counter "engine.plan_reuses"));
  Buffer.add_string b
    (Printf.sprintf ",\"result_hits\":%d"
       (registry_counter "result_cache.hits"));
  Buffer.add_string b
    (Printf.sprintf ",\"translate_wall_seconds\":%s"
       (json_float
          (Vmbp_obs.Registry.gauge_value
             (Vmbp_obs.Registry.gauge "engine.translate_wall_seconds"))));
  (* vmbp-cells/7: report-service counters since process start --
     [store_hits]/[store_misses] count content-addressed store lookups,
     [coalesced] counts queries merged onto an identical in-flight miss,
     [shed] counts requests refused by admission control, and
     [degraded_seconds] is the time the service spent in store-only
     degradation.  All read from the registry so the summary works in
     the service process and reads zero elsewhere. *)
  Buffer.add_string b
    (Printf.sprintf ",\"store_hits\":%d" (registry_counter "store.hits"));
  Buffer.add_string b
    (Printf.sprintf ",\"store_misses\":%d" (registry_counter "store.misses"));
  Buffer.add_string b
    (Printf.sprintf ",\"coalesced\":%d" (registry_counter "service.coalesced"));
  Buffer.add_string b
    (Printf.sprintf ",\"shed\":%d" (registry_counter "service.shed"));
  Buffer.add_string b
    (Printf.sprintf ",\"degraded_seconds\":%s"
       (json_float
          (Vmbp_obs.Registry.gauge_value
             (Vmbp_obs.Registry.gauge "service.degraded_seconds"))));
  (* Differential-checking counters (vmbp-cells/3): [audited] counts
     cells cross-checked against an oracle in this result set;
     [divergences] counts oracle disagreements recorded since the audit
     statistics were last reset (any divergence also fails its cell). *)
  Buffer.add_string b
    (Printf.sprintf ",\"self_check\":%b" !self_check);
  Buffer.add_string b
    (Printf.sprintf ",\"audit_sample\":%s" (json_float !audit_sample));
  Buffer.add_string b
    (Printf.sprintf ",\"audited\":%d" (countp (fun t -> t.audited)));
  Buffer.add_string b
    (Printf.sprintf ",\"divergences\":%d" (Audit.divergence_count ()));
  (match journal_stats () with
  | None -> ()
  | Some s ->
      Buffer.add_string b
        (Printf.sprintf
           ",\"journal\":{\"loaded\":%d,\"served\":%d,\"appended\":%d,\"write_errors\":%d,\"truncated\":%d}"
           s.Journal.loaded s.Journal.served s.Journal.appended
           s.Journal.write_errors s.Journal.truncated));
  (match store_stats () with
  | None -> ()
  | Some s ->
      Buffer.add_string b
        (Printf.sprintf
           ",\"store\":{\"entries\":%d,\"shards\":%d,\"loaded\":%d,\"served\":%d,\"missed\":%d,\"appended\":%d,\"write_errors\":%d,\"corrupt\":%d,\"compactions\":%d}"
           s.Vmbp_store.Store.entries s.Vmbp_store.Store.shards
           s.Vmbp_store.Store.loaded s.Vmbp_store.Store.served
           s.Vmbp_store.Store.missed s.Vmbp_store.Store.appended
           s.Vmbp_store.Store.write_errors s.Vmbp_store.Store.corrupt
           s.Vmbp_store.Store.compactions));
  Buffer.add_string b
    (Printf.sprintf ",\"trace_cap_mb\":%d" !trace_cap_mb);
  Buffer.add_string b
    (Printf.sprintf ",\"cell_wall_seconds\":%s" (json_float total));
  Buffer.add_string b
    (Printf.sprintf ",\"direct_wall_seconds\":%s" (json_float (wall Direct)));
  Buffer.add_string b
    (Printf.sprintf ",\"record_wall_seconds\":%s" (json_float (wall Record)));
  Buffer.add_string b
    (Printf.sprintf ",\"replay_wall_seconds\":%s" (json_float (wall Replay)));
  (* vmbp-cells/4: time spent serving cells without any simulation at all
     (journal lookups and memo-table replays). *)
  Buffer.add_string b
    (Printf.sprintf ",\"serve_wall_seconds\":%s"
       (json_float
          (List.fold_left (fun a t -> a +. t.serve_seconds) 0. results)));
  Buffer.add_string b ",\"results\":[";
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n  ";
      Buffer.add_string b (json_of_timed t))
    results;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_json_summary ?jobs ~file results =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (json_summary ?jobs results))
