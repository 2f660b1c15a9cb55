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

type ctx = {
  jobs : int;
  progress : bool;
  self_check : bool;
  audit_sample : float;
  cell_timeout : float;
  cell_retries : int;
  audit : Audit.log;
}

let default_ctx () =
  {
    jobs = 1;
    progress = false;
    self_check = false;
    audit_sample = 0.02;
    cell_timeout = 0.;
    cell_retries = 1;
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
let m_cell_retries = Vmbp_obs.Registry.counter "cells.retries"
let m_cell_timeouts = Vmbp_obs.Registry.counter "cells.timeouts"

(* Worker domains respawned after an injected (or real) worker death. *)
let m_respawns = Vmbp_obs.Registry.counter "pool.respawns"
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
   in place at most twice a second from whichever domain happens to tick
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

(* Base delay between retry attempts, doubled per attempt and jittered. *)
let retry_backoff_s = 0.02

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

let worker_respawns () =
  Int64.to_int (Vmbp_obs.Registry.counter_value m_respawns)

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

(* A cell produced in one attempt, with no store, timeout or audit. *)
let timed_cell ?(attempts = 1) ?(serve_seconds = 0.) ~mode ~wall_seconds c
    outcome =
  {
    cell = c;
    outcome;
    wall_seconds;
    serve_seconds;
    mode;
    attempts;
    timed_out = false;
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
   process, and failures may be transient (timeouts, injected faults). *)
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
   stored success is by definition untrapped ({!Runner.run} turns traps
   into [Error] cells before they reach the store). *)
let timed_of_entry c (e : Vmbp_store.Cellrec.entry) =
  let outcome =
    match e.Vmbp_store.Cellrec.outcome with
    | Ok s ->
        let m = Metrics.copy s.Vmbp_store.Cellrec.metrics in
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
                steps = s.Vmbp_store.Cellrec.steps;
                trapped = None;
              };
            output = s.Vmbp_store.Cellrec.output;
          }
    | Error msg -> Error msg
  in
  {
    cell = c;
    outcome;
    wall_seconds = 0.;
    serve_seconds = 0.;
    mode = Replay;
    attempts = e.Vmbp_store.Cellrec.attempts;
    timed_out = e.Vmbp_store.Cellrec.timed_out;
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

(* The store sits below the fault harness in the library graph, so the
   [store-io] chaos point reaches it through this hook. *)
let () = Vmbp_store.Store.io_fault_hook := Faults.store_io

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
   failures may be transient and a service must never serve one from
   cache -- and an entry already present (the usual case when the same
   cell appears twice in one batch) is not appended again. *)
let store_append store c (t : timed) =
  match store with
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

(* A poll hook for the engine's step loop and the path walk's blocks
   that raises once a deadline [ctx.cell_timeout] seconds after [t0]
   passes (and ticks the heartbeat, if there is one). *)
let deadline_poll ctx hb t0 =
  let t = ctx.cell_timeout in
  if t > 0. then begin
    let deadline = t0 +. t in
    Some
      (fun () ->
        Option.iter tick hb;
        if Vmbp_sim.Env.now () > deadline then raise Cell_deadline)
  end
  else Option.map (fun hb () -> tick hb) hb

(* Run one cell attempt under the watchdog/retry policy.  The body gets a
   poll hook that raises once the attempt's deadline passes, so every
   cell honours [--cell-timeout] without preemption.
   Deterministic failures ([Runner.Run_failed] traps, or any [Error]
   return) are never retried; a timeout is not retried either (the next
   attempt would hit the same deadline); everything else -- including the
   [cell-raise] chaos point -- counts as transient and is retried up to
   [ctx.cell_retries] times with jittered exponential backoff.  Returns
   [(outcome, attempts, timed_out)]. *)
let supervised ctx hb body =
  let retries = max 0 ctx.cell_retries in
  let rec attempt n =
    let poll = deadline_poll ctx hb (Vmbp_sim.Env.now ()) in
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
        ( Error (Printf.sprintf "timed out after %gs" ctx.cell_timeout),
          n,
          true )
    | `Transient msg ->
        if n > retries then (Error msg, n, false)
        else begin
          let base = retry_backoff_s *. float_of_int (1 lsl (n - 1)) in
          Vmbp_sim.Env.sleep (base *. (0.5 +. Faults.jitter ()));
          attempt (n + 1)
        end
  in
  attempt 1

(* Per-cell allocation pressure, from the domain-local GC counters; the
   delta is this domain's minor allocation while the cell ran, which is
   attributable because a cell never migrates between domains. *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* One live cell. *)
let run_cell ctx hb c =
  let t0 = Vmbp_sim.Env.now () in
  let w0 = minor_words () in
  let outcome, attempts, timed_out =
    Vmbp_obs.Span.with_ ~name:"cell" ~args:[ ("cell", cell_name c) ] (fun () ->
        if ctx.self_check then
          supervised ctx hb (fun ?poll () ->
              Runner.run_checked ~scale:c.scale ?poll ?predictor:c.predictor
                ~audit:ctx.audit ~cell:(cell_key c) ~cpu:c.cpu
                ~technique:c.technique c.workload)
        else
          supervised ctx hb (fun ?poll () ->
              Ok
                (Runner.run ~scale:c.scale ?poll ?predictor:c.predictor
                   ~cpu:c.cpu ~technique:c.technique c.workload)))
  in
  Vmbp_obs.Registry.observe h_cell_minor_words (minor_words () -. w0);
  {
    (timed_cell c outcome ~attempts ~mode:Direct
       ~wall_seconds:(Vmbp_sim.Env.now () -. t0))
    with
    timed_out;
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
    Vmbp_obs.Registry.add m_cell_retries (max 0 (t.attempts - 1));
    if t.timed_out then Vmbp_obs.Registry.add m_cell_timeouts 1;
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
      (fun i -> finish ~live:true i (run_cell b.ctx b.hb arr.(i)))
      (pending ())
  in
  (* One walk for [cells]; [false] when the workload is unfit.  The walk
     and any recording it makes run under one group-level deadline; a
     deadline or any other failure escapes to the group guard below.  Its
     wall time is billed to the first cell, so summing wall_seconds still
     accounts all work. *)
  let walk = function
    | [] -> true
    | i :: _ as cells -> (
        let c0 = arr.(i) in
        let t0 = Vmbp_sim.Env.now () in
        match
          Vmbp_obs.Span.with_ ~name:"bank" ~args:[ ("cell", cell_name c0) ]
            (fun () ->
              Runner.walk_group ~scale:c0.scale
                ?poll:(deadline_poll b.ctx b.hb t0) ~cap_bytes:(cap_bytes ())
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
     walk, its deadline, the injected record fault) degrades this group to
     per-cell live runs instead of escaping into the pool.  Worker death
     is the deliberate exception -- it must escape to exercise the
     supervision layer above. *)
  Vmbp_obs.Registry.gauge_add g_busy_workers 1.;
  Fun.protect
    ~finally:(fun () -> Vmbp_obs.Registry.gauge_add g_busy_workers (-1.))
    (fun () ->
      match
        serve_cached ();
        (* Self-check compares simulators event by event, which only a
           fresh live execution per cell provides. *)
        if b.ctx.self_check || !trace_cap_mb <= 0 || not (walk (pending ()))
        then
          direct ()
      with
      | () -> ()
      | exception Faults.Worker_killed -> raise Faults.Worker_killed
      | exception _ -> direct ())

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

(* A group abandoned after the respawn budget ran out. *)
let abandoned_cell c =
  timed_cell c ~attempts:0 ~mode:Direct ~wall_seconds:0.
    (Error "worker died repeatedly on this cell's group")

(* How many rounds of worker respawning the pool tolerates before it gives
   the surviving groups up as poisoned.  Far above anything a real fault
   produces; purely a livelock backstop for probabilistic chaos specs. *)
let max_respawn_rounds = 64

(* One group on the calling domain, behind the worker-death chaos point. *)
let run_group_killable b g =
  Faults.worker_death ();
  run_group b g

(* Pool supervision.  Every group is known before any worker starts, so a
   round's workers take groups by index from one atomic cursor.  A worker
   that hits [Worker_killed] stops taking groups -- from the pool's point
   of view the domain is dead -- and marks its group orphaned.  After the
   round's domains are joined, the supervisor respawns a fresh pool over
   the orphans plus the groups no worker took, so pending groups survive
   any number of worker deaths (up to the livelock backstop). *)
let run_pool b ~jobs groups =
  let rec round n groups =
    let groups = Array.of_list groups in
    let len = Array.length groups in
    let cursor = Atomic.make 0 in
    (* Written only by the worker that took index [k]; read after the
       joins. *)
    let orphaned = Array.make len false in
    Vmbp_obs.Registry.gauge_add g_queue_depth (float_of_int len);
    let rec worker () =
      if not (shutting_down ()) then begin
        let k = Atomic.fetch_and_add cursor 1 in
        if k < len then begin
          Vmbp_obs.Registry.gauge_add g_queue_depth (-1.);
          match run_group_killable b groups.(k) with
          | () -> worker ()
          | exception Faults.Worker_killed -> orphaned.(k) <- true
        end
      end
    in
    let domains =
      Array.init (min (jobs - 1) (len - 1)) (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join domains;
    let taken = min len (Atomic.get cursor) in
    Vmbp_obs.Registry.gauge_add g_queue_depth (-.float_of_int (len - taken));
    let orphans = List.filter (Array.get orphaned) (List.init taken Fun.id) in
    let stranded = List.init (len - taken) (fun k -> taken + k) in
    let pending = List.map (Array.get groups) (orphans @ stranded) in
    if pending <> [] && not (shutting_down ()) then begin
      Vmbp_obs.Registry.add m_respawns (List.length orphans);
      if n >= max_respawn_rounds then
        List.iter
          (fun g ->
            match run_group_killable b g with
            | () -> ()
            | exception Faults.Worker_killed ->
                List.iter
                  (fun i ->
                    if b.results.(i) = None then
                      b.results.(i) <- Some (abandoned_cell b.cells.(i)))
                  g)
          pending
      else round (n + 1) pending
    end
  in
  round 0 groups

let run_cells ?(ctx = default_ctx ()) ?store cells =
  let jobs = max 1 ctx.jobs in
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
  if jobs = 1 || List.compare_length_with groups 1 <= 0 then
    (* Sequential path, bit-for-bit the reference for the pool.  A worker
       death here has no pool above it to respawn into, so it escapes
       [run_cells] entirely -- deliberately: it is the fault harness's
       stand-in for a killed process (the store keeps every success
       completed so far; the harness maps it to a resumable exit). *)
    List.iter
      (fun g -> if not (shutting_down ()) then run_group_killable b g)
      groups
  else run_pool b ~jobs groups;
  if Option.is_some b.hb then erase ();
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
  add ",\"timed_out\":%b" t.timed_out;
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
     [shed] counts requests refused by admission control, and
     [degraded_seconds] is the time the service spent in store-only
     degradation.  All read from the registry so the summary works in
     the service process and reads zero elsewhere. *)
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
  Buffer.add_string b
    (Printf.sprintf ",\"degraded_seconds\":%s"
       (Json.float
          (Vmbp_obs.Registry.gauge_value
             (Vmbp_obs.Registry.gauge "service.degraded_seconds"))));
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
