open Vmbp_core

type run = {
  workload : Vmbp_workloads.t;
  technique : Technique.t;
  cpu : Vmbp_machine.Cpu_model.t;
  result : Engine.result;
  output : string;
}

exception Run_failed of string

let engine_fuel = 2_000_000_000

(* ------------------------------------------------------------------ *)
(* Decode-once plan cache.  A layout builds deterministically from
   (vm, workload, technique, scale) -- the CPU and predictor configuration
   never shape code addresses -- so the engine's translation of it does
   too.  The first run of a group captures an immutable {!Engine.plan};
   every later run of the same key instantiates a private copy by array
   blits instead of re-decoding the sites.  Entries are evicted FIFO: the
   parallel runner works group-by-group, so only the groups currently in
   flight need their plans resident. *)

let m_translations = Vmbp_obs.Registry.counter "engine.translations"
let m_plan_reuses = Vmbp_obs.Registry.counter "engine.plan_reuses"
let g_translate_wall = Vmbp_obs.Registry.gauge "engine.translate_wall_seconds"

let plan_cache : (string, Engine.plan) Hashtbl.t = Hashtbl.create 32
let plan_order : string Queue.t = Queue.create ()
let plan_lock = Mutex.create ()
let plan_cache_cap = 32

let plan_cache_key ~technique ~scale (workload : Vmbp_workloads.t) =
  Printf.sprintf "%s/%s/%s/%d"
    (Vmbp_workloads.vm_name workload.Vmbp_workloads.vm)
    workload.Vmbp_workloads.name
    (Technique.descriptor technique)
    scale

(* [cacheable] is false when the caller supplied an explicit training
   profile: the layout then depends on data outside the cache key. *)
let translation_for ~cacheable ~technique ~scale workload layout =
  let t0 = Vmbp_sim.Env.now () in
  let tr =
    if not cacheable then begin
      Vmbp_obs.Registry.add m_translations 1;
      Engine.translation layout
    end
    else begin
      let key = plan_cache_key ~technique ~scale workload in
      Mutex.lock plan_lock;
      let plan =
        match Hashtbl.find_opt plan_cache key with
        | Some p ->
            Mutex.unlock plan_lock;
            Vmbp_obs.Registry.add m_plan_reuses 1;
            p
        | None -> (
            (* Capture outside the lock?  No: capturing under the lock lets
               concurrent cells of one group share a single decode, and a
               capture is a few milliseconds at most. *)
            match Engine.plan layout with
            | p ->
                Vmbp_obs.Registry.add m_translations 1;
                Hashtbl.replace plan_cache key p;
                Queue.push key plan_order;
                if Queue.length plan_order > plan_cache_cap then
                  Hashtbl.remove plan_cache (Queue.pop plan_order);
                Mutex.unlock plan_lock;
                p
            | exception e ->
                Mutex.unlock plan_lock;
                raise e)
      in
      Engine.translation ~plan layout
    end
  in
  Vmbp_obs.Registry.gauge_add g_translate_wall (Vmbp_sim.Env.now () -. t0);
  tr

let trap_message (workload : Vmbp_workloads.t) technique msg =
  Printf.sprintf "%s/%s under %s trapped: %s"
    (Vmbp_workloads.vm_name workload.Vmbp_workloads.vm)
    workload.Vmbp_workloads.name (Technique.name technique) msg

(* The paper's training policy: static selection techniques get the
   workload's training profile unless the caller supplies one. *)
let effective_profile ?profile ~scale ~technique (workload : Vmbp_workloads.t)
    =
  match profile with
  | Some p -> Some p
  | None ->
      if Technique.uses_static_selection technique then
        Some
          (Vmbp_workloads.training_profile ~vm:workload.Vmbp_workloads.vm
             ~target:workload.Vmbp_workloads.name ~scale ())
      else None

(* ------------------------------------------------------------------ *)
(* VM path cache.  A workload's control path -- the outcome its semantics
   returns at each step -- is the same under every technique, CPU and
   predictor, so the first complete live run of a loaded workload records
   it ({!Vm_path}) and every later run replays it instead of executing the
   VM semantics.  Keys are the loaded workload's physical identity, like
   the trace cache's workload keys: the registry memoises its loaded
   workloads for the process lifetime, and a freshly constructed one can
   never alias a stale path.  Paths are never evicted; the ones kept stay
   within the byte budget the caller passes, and a workload whose path
   did not fit is marked [Unfit] and keeps running live without recording
   again.  Two domains may record the same workload at once; the first
   path stored wins. *)

type path_slot = Kept of Vm_path.t | Unfit

let m_path_records = Vmbp_obs.Registry.counter "vm_path.records"
let m_path_replays = Vmbp_obs.Registry.counter "vm_path.replays"
let g_path_bytes = Vmbp_obs.Registry.gauge "vm_path.bytes"

let paths : (Vmbp_workloads.loaded * path_slot) list ref = ref []
let paths_bytes = ref 0
let paths_lock = Mutex.create ()

let with_paths f =
  Mutex.lock paths_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock paths_lock) f

let path_find loaded = with_paths (fun () -> List.assq_opt loaded !paths)

let path_store ~cap loaded outcome =
  with_paths (fun () ->
      if not (List.mem_assq loaded !paths) then
        match outcome with
        | Ok p when !paths_bytes + Vm_path.bytes p <= cap ->
            paths := (loaded, Kept p) :: !paths;
            paths_bytes := !paths_bytes + Vm_path.bytes p;
            Vmbp_obs.Registry.add m_path_records 1;
            Vmbp_obs.Registry.gauge_set g_path_bytes (float_of_int !paths_bytes)
        | Ok _ | Error `Overflow -> paths := (loaded, Unfit) :: !paths
        | Error `Incomplete -> ())

let clear_vm_paths () =
  with_paths (fun () ->
      paths := [];
      paths_bytes := 0;
      Vmbp_obs.Registry.gauge_set g_path_bytes 0.)

(* The semantics one run drives: [exec], the program [output] to read
   once the run returned, and [keep], which stores the path a recording
   run captured.  Without [path_cap] the run is live on a fresh session;
   with it, the run replays the workload's path when one is cached and
   otherwise records one while running live. *)
type semantics = {
  exec : Engine.exec;
  output : unit -> string;
  keep : steps:int -> trapped:string option -> output:string -> unit;
}

let no_keep ~steps:_ ~trapped:_ ~output:_ = ()

let semantics ?path_cap (loaded : Vmbp_workloads.loaded) =
  let live () =
    let s = loaded.Vmbp_workloads.fresh_session () in
    {
      exec = s.Vmbp_workloads.exec;
      output = s.Vmbp_workloads.output;
      keep = no_keep;
    }
  in
  match path_cap with
  | None -> live ()
  | Some cap -> (
      match path_find loaded with
      | Some (Kept p) ->
          Vmbp_obs.Registry.add m_path_replays 1;
          {
            exec = Vm_path.replayer p;
            output = (fun () -> Vm_path.output p);
            keep = no_keep;
          }
      | Some Unfit -> live ()
      | None ->
          let s = live () in
          let recorder, exec =
            Vm_path.recorder
              ~cap_bytes:(cap - with_paths (fun () -> !paths_bytes))
              ~slots:(Vmbp_vm.Program.length loaded.Vmbp_workloads.program)
              s.exec
          in
          {
            s with
            exec;
            keep =
              (fun ~steps ~trapped ~output ->
                path_store ~cap loaded
                  (Vm_path.finish recorder ~steps ~trapped ~output));
          })

let run ?(scale = 1) ?poll ?predictor ?profile ?path_cap ~cpu ~technique
    (workload : Vmbp_workloads.t) =
  let cacheable = profile = None in
  let loaded, config, layout, translation =
    Vmbp_obs.Span.with_ ~name:"layout"
      ~args:[ ("workload", workload.Vmbp_workloads.name) ]
      (fun () ->
        let loaded = workload.Vmbp_workloads.load ~scale in
        let profile = effective_profile ?profile ~scale ~technique workload in
        let config = Config.make ~cpu ?predictor technique in
        let layout =
          Config.build_layout ?profile config
            ~program:loaded.Vmbp_workloads.program
        in
        let translation =
          translation_for ~cacheable ~technique ~scale workload layout
        in
        (loaded, config, layout, translation))
  in
  let sem = semantics ?path_cap loaded in
  let result =
    Vmbp_obs.Span.with_ ~name:"engine"
      ~args:[ ("workload", workload.Vmbp_workloads.name) ]
      (fun () ->
        Engine.run ~fuel:engine_fuel ?poll ~translation ~config ~layout
          ~exec:sem.exec ())
  in
  let output = sem.output () in
  sem.keep ~steps:result.Engine.steps ~trapped:result.Engine.trapped ~output;
  (match result.Engine.trapped with
  | Some msg -> raise (Run_failed (trap_message workload technique msg))
  | None -> ());
  { workload; technique; cpu; result; output }

let run_result ?scale ?poll ?predictor ?profile ?path_cap ~cpu ~technique
    workload =
  match
    run ?scale ?poll ?predictor ?profile ?path_cap ~cpu ~technique workload
  with
  | r -> Ok r
  | exception Run_failed msg -> Error msg
  | exception exn -> Error (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* Self-check: the same run policy, but through [Audit.dual_run], which
   drives the production simulators and the naive reference models over
   the same event stream and stops at the first disagreement. *)

let run_checked ?(scale = 1) ?poll ?predictor ?profile ?fast_maker ~cell ~cpu
    ~technique (workload : Vmbp_workloads.t) =
  let build () =
    let loaded = workload.Vmbp_workloads.load ~scale in
    let profile = effective_profile ?profile ~scale ~technique workload in
    let config = Config.make ~cpu ?predictor technique in
    let layout =
      Config.build_layout ?profile config
        ~program:loaded.Vmbp_workloads.program
    in
    let session = loaded.Vmbp_workloads.fresh_session () in
    (config, layout, session)
  in
  match
    let config, layout, session = build () in
    let fast = Option.map (fun f -> f ()) fast_maker in
    let checked =
      Vmbp_obs.Span.with_ ~name:"audit" ~args:[ ("cell", cell) ] (fun () ->
          Audit.dual_run ~fuel:engine_fuel ?poll ?fast ~cell ~config ~layout
            ~exec:session.Vmbp_workloads.exec ())
    in
    (checked, session)
  with
  | Ok result, session -> (
      (* Every event agreed, so the cell counts as audited even when the
         workload itself trapped. *)
      Audit.note_audited ();
      match result.Engine.trapped with
      | Some msg -> Error (trap_message workload technique msg)
      | None ->
          Ok
            {
              workload;
              technique;
              cpu;
              result;
              output = session.Vmbp_workloads.output ();
            })
  | Error d, _ ->
      (* Localize: replay the deterministic run, recording only the
         prefix up to the divergent event, then shrink and dump a repro
         artifact.  Divergences too deep to record replayably still fail
         the cell, just without a file. *)
      let events =
        if d.Audit.d_index < Audit.max_artifact_events then begin
          let _, layout, session = build () in
          Some
            (Audit.record_events ~fuel:engine_fuel
               ~limit:(d.Audit.d_index + 1) ~layout
               ~exec:session.Vmbp_workloads.exec ())
        end
        else None
      in
      let d = Audit.record_divergence ?fast_maker ?events d in
      Error
        (Printf.sprintf "self-check divergence at event %d: %s"
           d.Audit.d_index d.Audit.d_detail)
  | exception Run_failed msg -> Error msg
  | exception exn -> Error (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* Record/replay: one full engine execution per (workload, technique,
   scale), replayed for any number of CPU or predictor configurations. *)

type trace = {
  t_workload : Vmbp_workloads.t;
  t_technique : Technique.t;
  t_scale : int;
  t_data : Trace.t;
}

let record ?(scale = 1) ?poll ?profile ?cap_bytes ?path_cap ~technique
    (workload : Vmbp_workloads.t) =
  match
    let cacheable = profile = None in
    let loaded = workload.Vmbp_workloads.load ~scale in
    let profile = effective_profile ?profile ~scale ~technique workload in
    (* The CPU of this config is irrelevant: layout building depends on
       technique and costs only, and recording consumes neither the
       predictor nor the I-cache. *)
    let config = Config.make technique in
    let layout =
      Config.build_layout ?profile config ~program:loaded.Vmbp_workloads.program
    in
    let translation =
      translation_for ~cacheable ~technique ~scale workload layout
    in
    let sem = semantics ?path_cap loaded in
    let data =
      Trace.record ~fuel:engine_fuel ?poll ~translation ?cap_bytes ~layout
        ~exec:sem.exec ~output:sem.output ()
    in
    Option.iter
      (fun d ->
        sem.keep ~steps:(Trace.steps d) ~trapped:(Trace.trapped d)
          ~output:(Trace.output d))
      data;
    data
  with
  | Some data ->
      Ok { t_workload = workload; t_technique = technique; t_scale = scale; t_data = data }
  | None -> Error `Overflow
  | exception exn -> Error (`Failed (Printexc.to_string exn))

let run_of_replay tr cpu result =
  match result.Engine.trapped with
  | Some msg -> Error (trap_message tr.t_workload tr.t_technique msg)
  | None ->
      Ok
        {
          workload = tr.t_workload;
          technique = tr.t_technique;
          cpu;
          result;
          output = Trace.output tr.t_data;
        }

let replay ?poll ?predictor ~cpu tr =
  let config = Config.make ~cpu ?predictor tr.t_technique in
  run_of_replay tr cpu
    (Trace.replay ?poll tr.t_data ~cpu
       ~predictor:(Config.predictor_kind config))

let replay_bank ?poll ~configs tr =
  let resolved =
    List.map
      (fun (cpu, predictor) ->
        let config = Config.make ~cpu ?predictor tr.t_technique in
        (Config.predictor_kind config, cpu.Vmbp_machine.Cpu_model.icache))
      configs
  in
  Trace.replay_bank ?poll tr.t_data ~predictors:(List.map fst resolved)
    ~icaches:(List.map snd resolved)

let replay_memo ?predictor ~cpu tr =
  let config = Config.make ~cpu ?predictor tr.t_technique in
  Option.map (run_of_replay tr cpu)
    (Trace.replay_memo tr.t_data ~cpu
       ~predictor:(Config.predictor_kind config))

let trace_bytes tr = Trace.bytes tr.t_data
let release_trace tr = Trace.release tr.t_data

let matrix ?scale ~cpu ~techniques workloads =
  (* One trapped cell degrades to an [Error] entry; sibling experiments
     still run and report. *)
  List.map
    (fun w ->
      ( w,
        List.map
          (fun t -> (t, run_result ?scale ~cpu ~technique:t w))
          techniques ))
    workloads

let speedup ~baseline r = baseline.result.Engine.cycles /. r.result.Engine.cycles
