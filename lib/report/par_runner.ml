open Vmbp_core
open Vmbp_machine
module Faults = Vmbp_sim.Faults

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
  from_journal : bool;
  audited : bool;
}

type ctx = {
  jobs : int;
  progress : bool;
  self_check : bool;
  audit_sample : float;
  audit : Audit.log;
}

let default_ctx () =
  {
    jobs = 1;
    progress = false;
    self_check = false;
    audit_sample = 0.02;
    audit = Audit.create_log ~repro_dir:".";
  }

(* ------------------------------------------------------------------ *)
(* Observability instruments (see {!Vmbp_obs.Registry}).  Handles are
   module-level so [Registry.reset] between report runs zeroes them in
   place; every update happens at cell or group granularity, never inside
   the simulation hot loops. *)

(* Cells served verbatim from the full-result cache: no simulation ran. *)
let m_result_hits = Vmbp_obs.Registry.counter "result_cache.hits"

(* Group walks: one walk of a kept VM path serving a group of two or
   more cells, and the distinct simulators those walks drove. *)
let m_bank_replays = Vmbp_obs.Registry.counter "trace.bank_replays"
let m_banked_configs = Vmbp_obs.Registry.counter "trace.banked_configs"

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
(* Progress heartbeat: one stderr line for one [run_cells] call, redrawn
   in place at most twice a second from whichever domain finishes a cell
   first.  It exists only when [ctx.progress] is set, and it never writes
   to stdout, so report tables stay byte-identical with it on. *)

type heartbeat = {
  hb_lock : Mutex.t;
  hb_total : int;
  hb_start : float;
  mutable hb_done : int;  (* under [hb_lock] *)
  mutable hb_last : float;  (* last redraw; written under [hb_lock] *)
}

let heartbeat total =
  {
    hb_lock = Mutex.create ();
    hb_total = total;
    hb_start = Vmbp_sim.Env.now ();
    hb_done = 0;
    hb_last = 0.;
  }

(* Called with [hb_lock] held. *)
let draw hb now =
  hb.hb_last <- now;
  let elapsed = now -. hb.hb_start in
  let d = hb.hb_done and t = hb.hb_total in
  let eta =
    if d = 0 || d >= t then ""
    else
      Printf.sprintf "  eta %.0fs"
        (elapsed *. float_of_int (t - d) /. float_of_int d)
  in
  Printf.eprintf "\r[vmbp] %d/%d cells  %d busy  %.0fs elapsed%s   %!" d t
    (int_of_float (Vmbp_obs.Registry.gauge_value g_busy_workers))
    elapsed eta

let tick hb =
  let now = Vmbp_sim.Env.now () in
  if now -. hb.hb_last >= 0.5 then begin
    Mutex.lock hb.hb_lock;
    if now -. hb.hb_last >= 0.5 then draw hb now;
    Mutex.unlock hb.hb_lock
  end

let cell_done hb =
  Mutex.lock hb.hb_lock;
  hb.hb_done <- hb.hb_done + 1;
  Mutex.unlock hb.hb_lock

(* Erase the heartbeat so whatever stderr prints next starts on a clean
   line. *)
let erase () = Printf.eprintf "\r%s\r%!" (String.make 70 ' ')

(* Total budget for kept VM paths, in MB; [<= 0] disables path walks and
   the result cache (every cell runs live).  Process-global rather than a
   [ctx] field: the benchmark's reference generator assigns it. *)
let trace_cap_mb = ref 256

(* ------------------------------------------------------------------ *)
(* Graceful shutdown.

   The first Ctrl-C sets this flag; workers finish the group in hand,
   skip everything still queued, and [run_cells] reports the skipped
   cells as interrupted so the harness can emit a partial report.  The
   store needs no extra flushing -- every append was already fsync'd.
   Process-global because signal handlers set it. *)

let shutdown = Atomic.make false
let request_shutdown () = Atomic.set shutdown true
let shutting_down () = Atomic.get shutdown
let reset_shutdown () = Atomic.set shutdown false

let bank_replays () =
  Int64.to_int (Vmbp_obs.Registry.counter_value m_bank_replays)

let banked_configs () =
  Int64.to_int (Vmbp_obs.Registry.counter_value m_banked_configs)

let cell ?(tag = "") ?(scale = 1) ?predictor ~cpu ~technique workload =
  { tag; workload; technique; cpu; scale; predictor }

let cell_name c =
  Printf.sprintf "%s/%s/%s/%s%s"
    (Vmbp_workloads.vm_name c.workload.Vmbp_workloads.vm)
    c.workload.Vmbp_workloads.name
    (Technique.name c.technique)
    c.cpu.Cpu_model.name
    (if c.scale = 1 then "" else Printf.sprintf "@%d" c.scale)

(* A cell produced here, neither served from the store nor audited. *)
let timed_cell ?(attempts = 1) ?(serve_seconds = 0.) ~mode ~wall_seconds c
    outcome =
  {
    cell = c;
    outcome;
    wall_seconds;
    serve_seconds;
    mode;
    attempts;
    from_journal = false;
    audited = false;
  }

(* ------------------------------------------------------------------ *)
(* The session log: every cell run through this module is recorded so the
   harnesses can dump one machine-readable summary at exit.  Process-global
   rather than per run: the benchmark drains it after calls that take no
   [ctx]. *)

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

let cap_bytes () = !trace_cap_mb * 1024 * 1024

let same_group a b =
  a.workload == b.workload && a.scale = b.scale && a.technique = b.technique

let clear_trace_cache () = Runner.clear_vm_paths ()

(* ------------------------------------------------------------------ *)
(* Cell identity.

   The key is human-readable and parameter-complete (a collapsed label
   like "static repl" must not alias two different replica counts); the
   fingerprint is a digest of everything else that could change a cell's
   numbers between runs -- scale, the full CPU profile, the predictor
   override, the trace setting -- so a record written under one
   configuration is never wrongly served to another.  The fingerprint's
   salt predates the store and is kept so existing stores stay valid. *)

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
   Workload identity is physical, like the kept paths': a freshly
   constructed workload can never alias a cached result.  Bypassed under
   [--self-check] (every cell must run a fresh lockstep execution) and
   when caching is disabled outright ([--trace-cap-mb 0]).  Process-global
   rather than per run: the benchmark's per-experiment loop relies on it
   across calls. *)

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

let result_enabled ctx = (not ctx.self_check) && !trace_cap_mb > 0

let result_find ctx c =
  if not (result_enabled ctx) then None
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

(* Only genuinely computed successes are stored: store-served outcomes
   were computed under a possibly different configuration of a previous
   process, and a failed cell is recomputed, never served, as in the
   store. *)
let result_store ctx c (t : timed) =
  if result_enabled ctx && not t.from_journal then
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

(* Rebuild the exact [timed] a live run would have produced from a store
   record.  Only integer event counters ever touch the disk; cycles and
   seconds are recomputed through the same {!Cpu_model} arithmetic as a
   live run, so a resumed report is byte-identical by construction.  A
   store record is a success, so by definition untrapped ({!Runner.run}
   turns traps into [Error] cells, which never reach the store). *)
let timed_of_entry c (e : Vmbp_store.Cellrec.entry) =
  let m = Metrics.copy e.Vmbp_store.Cellrec.metrics in
  {
    cell = c;
    outcome =
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
              steps = e.Vmbp_store.Cellrec.steps;
              trapped = None;
            };
          output = e.Vmbp_store.Cellrec.output;
        };
    wall_seconds = 0.;
    serve_seconds = 0.;
    mode = Replay;
    attempts = 1;
    from_journal = true;
    audited = false;
  }

(* ------------------------------------------------------------------ *)
(* Content-addressed result store: the crash-safe resume path and the
   report service's durable result table in one.  Cells are addressed by
   the tagless parameter-complete key -- the same identity the
   full-result cache uses -- so a store warmed by a grid run serves any
   later query for the same configuration, whatever experiment tag asked
   for it, and a killed run re-run over the same store recomputes only
   what it had not yet appended. *)

(* The store key is the full-result cache's identity: tagless, with the
   complete CPU profile spelled out. *)
let store_key = result_key

(* Serve one cell from the store, if present.  Served cells carry
   [from_journal = true] (the name predates the store): the flag means
   "reconstructed from disk, no simulator ran", and every downstream
   policy (no re-append, no result cache, no audit) wants exactly that
   treatment. *)
let store_lookup s c =
  let t0 = Vmbp_sim.Env.now () in
  match
    Vmbp_store.Store.lookup s ~key:(store_key c)
      ~fingerprint:(config_fingerprint c)
  with
  | Some e ->
      let t = timed_of_entry c e in
      Some { t with serve_seconds = Vmbp_sim.Env.now () -. t0 }
  | None -> None

(* Persist a freshly computed success.  Only [Ok] outcomes are stored --
   a store record is a success, and a service must never serve a failure
   from it -- and an entry already present (the usual case when the same
   cell appears twice in one batch) is not appended again. *)
let store_append store c (t : timed) =
  match store with
  | None -> ()
  | Some s -> (
      match t.outcome with
      | Ok r when not t.from_journal ->
          let key = store_key c and fingerprint = config_fingerprint c in
          if not (Vmbp_store.Store.mem s ~key ~fingerprint) then
            Vmbp_obs.Span.with_ ~name:"store-append"
              ~args:[ ("key", key) ]
              (fun () ->
                Vmbp_store.Store.append s
                  {
                    Vmbp_store.Cellrec.key;
                    fingerprint;
                    metrics = Metrics.copy r.Runner.result.Engine.metrics;
                    steps = r.Runner.result.Engine.steps;
                    output = r.Runner.output;
                  })
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Running *)

(* Per-cell allocation pressure, from the domain-local GC counters; the
   delta is this domain's minor allocation while the cell ran, which is
   attributable because a cell never migrates between domains. *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* One live cell, run once: {!Runner.run_result} and {!Runner.run_checked}
   turn any exception into the cell's [Error], and a cell is a
   deterministic, fuel-capped simulation, so another attempt would only
   repeat it. *)
let run_cell ctx c =
  let t0 = Vmbp_sim.Env.now () in
  let w0 = minor_words () in
  let outcome =
    Vmbp_obs.Span.with_ ~name:"cell" ~args:[ ("cell", cell_name c) ] (fun () ->
        if ctx.self_check then
          Runner.run_checked ~scale:c.scale ?predictor:c.predictor
            ~audit:ctx.audit ~cell:(cell_key c) ~cpu:c.cpu
            ~technique:c.technique c.workload
        else
          Runner.run_result ~scale:c.scale ?predictor:c.predictor ~cpu:c.cpu
            ~technique:c.technique c.workload)
  in
  Vmbp_obs.Registry.observe h_cell_minor_words (minor_words () -. w0);
  {
    (timed_cell c outcome ~mode:Direct
       ~wall_seconds:(Vmbp_sim.Env.now () -. t0))
    with
    audited = ctx.self_check;
  }

(* ------------------------------------------------------------------ *)
(* Sampled auditing of the fast paths.

   Cells served without a fresh VM execution -- path walks, whatever
   their mode, and result-cache hits -- are the ones a silent fast-path
   bug would corrupt, so a deterministic sample of them is re-run live
   through [Runner.run_result] and compared field for field.  Live cells
   are exempt: they are what the audit compares against.  The sample is
   keyed on the cell key alone: the same cells are audited on every run
   of the same grid, with any job count. *)

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

let audit_crosscheck ctx c (t : timed) =
  if
    t.from_journal || ctx.self_check
    || not (Audit.sampled ~key:(cell_key c) ~rate:ctx.audit_sample)
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
    if agree then { t with audited = true; wall_seconds }
    else begin
      let config = Config.make ~cpu:c.cpu ?predictor:c.predictor c.technique in
      let detail =
        Printf.sprintf
          "walked or cached cell disagrees with a fresh live run: served \
           %s, live %s"
          (outcome_summary t.outcome)
          (outcome_summary direct)
      in
      let d =
        Audit.record_divergence ctx.audit
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

(* One [run_cells] call: its settings, its heartbeat (if [ctx.progress]),
   its store, its cells and their result slots. *)
type batch = {
  ctx : ctx;
  hb : heartbeat option;
  store : Vmbp_store.Store.t option;
  cells : cell array;
  results : timed option array;
}

(* One (workload, technique, scale) group.  Exact revisits are served from
   the result cache; the rest run as one walk of the workload's VM path
   over all their configurations ({!Runner.walk_group}, which records the
   path first if no group of the workload has).  For an unfit workload,
   under [--self-check] and with [--trace-cap-mb 0] every cell runs live.
   Any problem in the walk, its recording included, degrades the group to
   per-cell live runs.  Every completed success is appended to the store
   (if there is one) the moment its slot is filled, so a crash loses
   at most the group in flight.  Already-filled slots (served from the
   store, or filled before a degradation rerun) are skipped, which makes
   the group idempotent under fallback. *)
let run_group b idxs =
  let arr = b.cells and results = b.results in
  let finish ~live i t =
    let t = if live then t else audit_crosscheck b.ctx arr.(i) t in
    results.(i) <- Some t;
    result_store b.ctx arr.(i) t;
    Vmbp_obs.Registry.observe h_cell_wall t.wall_seconds;
    store_append b.store arr.(i) t;
    Option.iter
      (fun hb ->
        cell_done hb;
        tick hb)
      b.hb
  in
  let pending () = List.filter (fun i -> results.(i) = None) idxs in
  let direct () =
    List.iter
      (fun i -> finish ~live:true i (run_cell b.ctx arr.(i)))
      (pending ())
  in
  (* One walk for [cells]; [false] when the workload is unfit.  A failure
     in the walk or in any recording it makes escapes to the group guard
     below.  Its wall time is billed to the first cell, so summing
     wall_seconds still accounts all work. *)
  let walk = function
    | [] -> true
    | i :: _ as cells -> (
        let c0 = arr.(i) in
        let t0 = Vmbp_sim.Env.now () in
        match
          Vmbp_obs.Span.with_ ~name:"bank" ~args:[ ("cell", cell_name c0) ]
            (fun () ->
              Runner.walk_group ~scale:c0.scale ~cap_bytes:(cap_bytes ())
                ~technique:c0.technique
                ~configs:
                  (List.map (fun i -> (arr.(i).cpu, arr.(i).predictor)) cells)
                c0.workload)
        with
        | None -> false
        | Some (outcomes, sims) ->
            (* Chaos point for the group walk: a failure here -- after the
               walk, before any cell is filled -- must degrade to per-cell
               runs via the group guard below, never escape into the
               pool. *)
            Faults.record_fail ();
            let single = match cells with [ _ ] -> true | _ -> false in
            if not single then begin
              Vmbp_obs.Registry.add m_bank_replays 1;
              Vmbp_obs.Registry.add m_banked_configs sims
            end;
            let wall = Vmbp_sim.Env.now () -. t0 in
            List.iteri
              (fun k (i, outcome) ->
                finish ~live:false i
                  (timed_cell arr.(i) outcome
                     ~wall_seconds:(if k = 0 then wall else 0.)
                     ~mode:
                       (if single then Direct else if k = 0 then Record
                        else Replay)))
              (List.combine cells outcomes);
            true)
  in
  (* Serve exact revisits from the full-result cache before any engine
     work engages.  Served cells are [Replay]-mode (no VM execution
     produced them here) and audited like walks. *)
  let serve_cached () =
    List.iter
      (fun i ->
        let t0 = Vmbp_sim.Env.now () in
        match result_find b.ctx arr.(i) with
        | None -> ()
        | Some run ->
            let wall = Vmbp_sim.Env.now () -. t0 in
            finish ~live:false i
              (timed_cell arr.(i) (Ok run) ~mode:Replay ~wall_seconds:wall
                 ~serve_seconds:wall))
      (pending ())
  in
  (* Group-level guard: anything raised outside the per-cell guards (the
     walk, its recording, the injected record fault) degrades this group
     to per-cell live runs instead of escaping into the pool, where it
     would stop the run.  Worker death, which is meant to stop the run,
     fires before this guard, in [run_group_killable]. *)
  Vmbp_obs.Registry.gauge_add g_busy_workers 1.;
  Fun.protect
    ~finally:(fun () -> Vmbp_obs.Registry.gauge_add g_busy_workers (-1.))
    (fun () ->
      try
        serve_cached ();
        (* Self-check compares simulators event by event, which only a
           fresh live execution per cell provides. *)
        if b.ctx.self_check || !trace_cap_mb <= 0 || not (walk (pending ()))
        then direct ()
      with _ -> direct ())

(* The planner: cell indices grouped by (workload, technique, scale) --
   physical workload identity, structural technique equality -- with
   groups in first-occurrence order and ascending indices within each
   group. *)
let plan cells =
  let groups = ref [] in
  List.iteri
    (fun i c ->
      match List.find_opt (fun (c0, _) -> same_group c0 c) !groups with
      | Some (_, l) -> l := i :: !l
      | None -> groups := (c, ref [ i ]) :: !groups)
    cells;
  List.rev_map (fun (_, l) -> List.rev !l) !groups

(* A cell skipped because shutdown was requested before it ran.
   [attempts = 0] keeps it out of the store: nothing was computed. *)
let interrupted_cell c =
  timed_cell c ~attempts:0 ~mode:Direct ~wall_seconds:0.
    (Error "interrupted before this cell ran (partial report)")

(* One group on the calling domain, behind the worker-death chaos point. *)
let run_group_killable b g =
  Faults.worker_death ();
  run_group b g

(* The pool, at every job count.  Every group is known before any worker
   starts, so the calling domain and up to [jobs - 1] spawned domains take
   groups by index from one atomic cursor; with [jobs = 1] nothing is
   spawned and groups run in plan order.  A group that raises -- a worker
   death ({!Faults.Worker_killed}, the fault harness's stand-in for a
   killed process) or anything else -- stops the run: every worker stops
   after the group in hand, and once every spawned domain is joined the
   first such exception leaves [run_cells].  The groups completed before
   it are already in the store, so a re-run over the store resumes. *)
let run_pool b ~jobs groups =
  let groups = Array.of_list groups in
  let len = Array.length groups in
  let cursor = Atomic.make 0 and failure = Atomic.make None in
  Vmbp_obs.Registry.gauge_add g_queue_depth (float_of_int len);
  let rec worker () =
    if not (shutting_down () || Option.is_some (Atomic.get failure)) then begin
      let k = Atomic.fetch_and_add cursor 1 in
      if k < len then begin
        Vmbp_obs.Registry.gauge_add g_queue_depth (-1.);
        match run_group_killable b groups.(k) with
        | () -> worker ()
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)))
      end
    end
  in
  let domains =
    List.init (max 0 (min jobs len - 1)) (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join domains;
  let taken = min len (Atomic.get cursor) in
  Vmbp_obs.Registry.gauge_add g_queue_depth (-.float_of_int (len - taken));
  Option.iter
    (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
    (Atomic.get failure)

let run_cells ?(ctx = default_ctx ()) ?store cells =
  let arr = Array.of_list cells in
  let b =
    {
      ctx;
      hb = (if ctx.progress then Some (heartbeat (Array.length arr)) else None);
      store;
      cells = arr;
      results = Array.make (Array.length arr) None;
    }
  in
  (* Resume pre-pass: serve stored cells before planning any work, so a
     fully stored group neither records nor walks anything. *)
  (match store with
  | None -> ()
  | Some s ->
      Vmbp_obs.Span.with_ ~name:"store-serve" (fun () ->
          Array.iteri
            (fun i c ->
              match store_lookup s c with
              | Some t ->
                  b.results.(i) <- Some t;
                  Option.iter cell_done b.hb
              | None -> ())
            arr));
  let groups =
    List.filter_map
      (fun g ->
        match List.filter (fun i -> b.results.(i) = None) g with
        | [] -> None
        | g -> Some g)
      (plan cells)
  in
  (* Erase the heartbeat even when the pool re-raises, so the message the
     caller prints next starts on a clean line. *)
  Fun.protect
    ~finally:(fun () -> if Option.is_some b.hb then erase ())
    (fun () -> run_pool b ~jobs:ctx.jobs groups);
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
         b.results)
  in
  record out;
  out

(* ------------------------------------------------------------------ *)
(* JSON summary *)

module Json = Vmbp_obs.Json

let json_of_timed t =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"tag\":\"%s\"" (Json.escape t.cell.tag);
  add ",\"vm\":\"%s\""
    (Json.escape (Vmbp_workloads.vm_name t.cell.workload.Vmbp_workloads.vm));
  add ",\"workload\":\"%s\""
    (Json.escape t.cell.workload.Vmbp_workloads.name);
  add ",\"technique\":\"%s\"" (Json.escape (Technique.name t.cell.technique));
  add ",\"cpu\":\"%s\"" (Json.escape t.cell.cpu.Cpu_model.name);
  add ",\"scale\":%d" t.cell.scale;
  (match t.cell.predictor with
  | Some p -> add ",\"predictor\":\"%s\"" (Json.escape (Predictor.kind_name p))
  | None -> ());
  (match t.outcome with
  | Ok r ->
      let m = r.Runner.result.Engine.metrics in
      add ",\"ok\":true";
      add ",\"cycles\":%s" (Json.float r.Runner.result.Engine.cycles);
      add ",\"mispredict_rate\":%s"
        (Json.float (Metrics.misprediction_rate m));
      add ",\"mispredicts\":%d" m.Metrics.mispredicts;
      add ",\"icache_misses\":%d" m.Metrics.icache_misses;
      add ",\"vm_instrs\":%d" m.Metrics.vm_instrs;
      add ",\"code_bytes\":%d" m.Metrics.code_bytes
  | Error msg -> add ",\"ok\":false,\"error\":\"%s\"" (Json.escape msg));
  add ",\"mode\":\"%s\"" (mode_name t.mode);
  add ",\"attempts\":%d" t.attempts;
  add ",\"from_journal\":%b" t.from_journal;
  if t.audited then add ",\"audited\":true";
  add ",\"wall_seconds\":%s" (Json.float t.wall_seconds);
  add ",\"serve_seconds\":%s" (Json.float t.serve_seconds);
  add "}";
  Buffer.contents b

let json_summary ?(ctx = default_ctx ()) ?store results =
  let total = List.fold_left (fun a t -> a +. t.wall_seconds) 0. results in
  let wall m =
    List.fold_left
      (fun a t -> if t.mode = m then a +. t.wall_seconds else a)
      0. results
  in
  (* [engine_runs] counts engine runs: every [Direct] cell (a live run or
     a one-cell walk) plus one per group walk ([Record]).  [Replay] cells
     (the rest of a group walk, or result-cache hits) and store-served
     cells ran nothing of their own; cells skipped by a shutdown
     ([attempts = 0]) ran nothing at all. *)
  let live m =
    List.length
      (List.filter
         (fun t -> t.mode = m && (not t.from_journal) && t.attempts > 0)
         results)
  in
  let countp p = List.length (List.filter p results) in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"vmbp-cells/8\"";
  Buffer.add_string b (Printf.sprintf ",\"jobs\":%d" (max 1 ctx.jobs));
  Buffer.add_string b
    (Printf.sprintf ",\"cells\":%d" (List.length results));
  Buffer.add_string b
    (Printf.sprintf ",\"engine_runs\":%d" (live Direct + live Record));
  Buffer.add_string b (Printf.sprintf ",\"replays\":%d" (live Replay));
  Buffer.add_string b
    (Printf.sprintf ",\"from_journal\":%d"
       (countp (fun t -> t.from_journal)));
  Buffer.add_string b
    (Printf.sprintf ",\"interrupted\":%d"
       (countp (fun t -> t.attempts = 0 && not t.from_journal)));
  Buffer.add_string b
    (Printf.sprintf ",\"injected_faults\":%d" (Faults.total_injected ()));
  (* vmbp-cells/5: group-walk counters since the last registry reset --
     [bank_replays] counts walks that served two or more cells,
     [banked_configs] the distinct simulators those walks drove. *)
  Buffer.add_string b
    (Printf.sprintf ",\"bank_replays\":%d" (bank_replays ()));
  Buffer.add_string b
    (Printf.sprintf ",\"banked_configs\":%d" (banked_configs ()));
  (* vmbp-cells/6: decode-once translation counters since process start --
     [translations] counts layout translations built for path walks (one
     per walk; live runs build none), [result_hits] counts cells served
     verbatim from the full-result cache, and [translate_wall_seconds] is
     the wall clock spent building translations. *)
  Buffer.add_string b
    (Printf.sprintf ",\"translations\":%d"
       (Vmbp_obs.Registry.count "engine.translations"));
  Buffer.add_string b
    (Printf.sprintf ",\"result_hits\":%d"
       (Vmbp_obs.Registry.count "result_cache.hits"));
  Buffer.add_string b
    (Printf.sprintf ",\"translate_wall_seconds\":%s"
       (Json.float
          (Vmbp_obs.Registry.gauge_value
             (Vmbp_obs.Registry.gauge "engine.translate_wall_seconds"))));
  (* vmbp-cells/7: report-service counters since process start --
     [store_hits]/[store_misses] count content-addressed store lookups,
     [coalesced] counts queries merged onto an identical in-flight miss,
     and [shed] counts requests refused by admission control.  All read
     from the registry so the summary works in the service process and
     reads zero elsewhere. *)
  Buffer.add_string b
    (Printf.sprintf ",\"store_hits\":%d"
       (Vmbp_obs.Registry.count "store.hits"));
  Buffer.add_string b
    (Printf.sprintf ",\"store_misses\":%d"
       (Vmbp_obs.Registry.count "store.misses"));
  Buffer.add_string b
    (Printf.sprintf ",\"coalesced\":%d"
       (Vmbp_obs.Registry.count "service.coalesced"));
  Buffer.add_string b
    (Printf.sprintf ",\"shed\":%d" (Vmbp_obs.Registry.count "service.shed"));
  (* Differential-checking counters (vmbp-cells/3): [audited] counts
     cells cross-checked against an oracle in this result set;
     [divergences] counts oracle disagreements recorded in [ctx]'s audit
     log (any divergence also fails its cell). *)
  Buffer.add_string b
    (Printf.sprintf ",\"self_check\":%b" ctx.self_check);
  Buffer.add_string b
    (Printf.sprintf ",\"audit_sample\":%s" (Json.float ctx.audit_sample));
  Buffer.add_string b
    (Printf.sprintf ",\"audited\":%d" (countp (fun t -> t.audited)));
  Buffer.add_string b
    (Printf.sprintf ",\"divergences\":%d" (Audit.divergence_count ctx.audit));
  (match Option.map Vmbp_store.Store.stats store with
  | None -> ()
  | Some s ->
      Buffer.add_string b
        (Printf.sprintf
           ",\"store\":{\"entries\":%d,\"loaded\":%d,\"served\":%d,\"missed\":%d,\"appended\":%d,\"write_errors\":%d,\"corrupt\":%d,\"compactions\":%d}"
           s.Vmbp_store.Store.entries s.Vmbp_store.Store.loaded
           s.Vmbp_store.Store.served s.Vmbp_store.Store.missed
           s.Vmbp_store.Store.appended s.Vmbp_store.Store.write_errors
           s.Vmbp_store.Store.corrupt s.Vmbp_store.Store.compactions));
  Buffer.add_string b
    (Printf.sprintf ",\"trace_cap_mb\":%d" !trace_cap_mb);
  Buffer.add_string b
    (Printf.sprintf ",\"cell_wall_seconds\":%s" (Json.float total));
  Buffer.add_string b
    (Printf.sprintf ",\"direct_wall_seconds\":%s" (Json.float (wall Direct)));
  Buffer.add_string b
    (Printf.sprintf ",\"record_wall_seconds\":%s" (Json.float (wall Record)));
  Buffer.add_string b
    (Printf.sprintf ",\"replay_wall_seconds\":%s" (Json.float (wall Replay)));
  (* vmbp-cells/4: time spent serving cells without any simulation at all
     (store lookups and result-cache hits). *)
  Buffer.add_string b
    (Printf.sprintf ",\"serve_wall_seconds\":%s"
       (Json.float
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

let write_json_summary ?ctx ?store ~file results =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (json_summary ?ctx ?store results))
