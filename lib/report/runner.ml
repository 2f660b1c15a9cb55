open Vmbp_core
open Vmbp_machine

type run = {
  workload : Vmbp_workloads.t;
  technique : Technique.t;
  cpu : Vmbp_machine.Cpu_model.t;
  result : Engine.result;
  output : string;
}

exception Run_failed of string

let engine_fuel = 2_000_000_000

(* Every walk decodes its layout afresh with {!Engine.translate}: copying
   a cached decode cost about as much, and a walk's translation is private
   anyway because quickening mutates it.  A live run reads none. *)

let m_translations = Vmbp_obs.Registry.counter "engine.translations"
let g_translate_wall = Vmbp_obs.Registry.gauge "engine.translate_wall_seconds"

let translate layout =
  let t0 = Vmbp_sim.Env.now () in
  Vmbp_obs.Registry.add m_translations 1;
  let tr = Engine.translate layout in
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
   predictor, so the first group walk of a loaded workload records it from
   one layout-free functional run ({!Engine.run_functional}) and every walk
   follows it ({!Path_walk}) instead of executing the VM semantics.  Keys
   are the loaded workload's physical identity: the registry memoises its
   loaded workloads for the process lifetime, and a freshly constructed one
   can never alias a stale path.  Paths are never evicted; the ones kept
   stay within the byte budget the caller passes.  A workload whose path
   did not fit, or whose recording ran out of fuel (a functional run is
   deterministic, so it would again), is marked [Unfit] and runs live.

   Each workload records under its own lock, so a group on another domain
   that needs the path waits for that recording instead of making its
   own.  A recording cut short by a deadline or an exception keeps
   nothing, and the next group of the workload records again. *)

type path_slot = Kept of Vm_path.t | Unfit

type path_entry = {
  key : Vmbp_workloads.loaded;
  lock : Mutex.t;  (* held while the workload records *)
  mutable slot : path_slot option;  (* under [lock] *)
}

let m_path_records = Vmbp_obs.Registry.counter "vm_path.records"

(* Walks: runs (or whole groups) driven by a kept path. *)
let m_path_walks = Vmbp_obs.Registry.counter "vm_path.walks"
let g_path_bytes = Vmbp_obs.Registry.gauge "vm_path.bytes"

(* [paths_lock] guards the entry list and the byte total.  Process-global
   rather than per run: the benchmark's per-experiment loop walks the
   paths one experiment after another recorded. *)
let paths : path_entry list ref = ref []
let paths_bytes = ref 0
let paths_lock = Mutex.create ()

let path_entry loaded =
  Mutex.protect paths_lock (fun () ->
      match List.find_opt (fun e -> e.key == loaded) !paths with
      | Some e -> e
      | None ->
          let e = { key = loaded; lock = Mutex.create (); slot = None } in
          paths := e :: !paths;
          e)

let clear_vm_paths () =
  Mutex.protect paths_lock (fun () ->
      paths := [];
      paths_bytes := 0;
      Vmbp_obs.Registry.gauge_set g_path_bytes 0.)

(* One functional run of [loaded] on a copy of its program (quickening
   rewrites the program it runs) and a fresh session, recording the path
   within what is left of [cap_bytes]. *)
let record_path ?poll ~cap_bytes (workload : Vmbp_workloads.t) loaded =
  Vmbp_obs.Span.with_ ~name:"record"
    ~args:[ ("workload", workload.Vmbp_workloads.name) ]
    (fun () ->
      let program = Vmbp_vm.Program.copy loaded.Vmbp_workloads.program in
      let s = loaded.Vmbp_workloads.fresh_session () in
      let recorder, exec =
        Vm_path.recorder
          ~cap_bytes:
            (cap_bytes - Mutex.protect paths_lock (fun () -> !paths_bytes))
          ~slots:(Vmbp_vm.Program.length program) s.Vmbp_workloads.exec
      in
      let steps, trapped =
        Engine.run_functional ~fuel:engine_fuel ?poll ~program ~exec ()
      in
      Vm_path.finish recorder ~steps ~trapped
        ~output:(s.Vmbp_workloads.output ()))

(* Keep a finished recording if it fits the budget, else mark [Unfit]. *)
let keep_path ~cap_bytes = function
  | Ok p ->
      Mutex.protect paths_lock (fun () ->
          if !paths_bytes + Vm_path.bytes p > cap_bytes then Unfit
          else begin
            paths_bytes := !paths_bytes + Vm_path.bytes p;
            Vmbp_obs.Registry.add m_path_records 1;
            Vmbp_obs.Registry.gauge_set g_path_bytes
              (float_of_int !paths_bytes);
            Kept p
          end)
  | Error (`Overflow | `Incomplete) -> Unfit

(* The workload's kept path, recording it first if it has none. *)
let vm_path ?poll ~cap_bytes (workload : Vmbp_workloads.t) loaded =
  let e = path_entry loaded in
  Mutex.protect e.lock (fun () ->
      if Option.is_none e.slot then
        e.slot <-
          Some
            (keep_path ~cap_bytes
               (record_path ?poll ~cap_bytes workload loaded));
      match e.slot with Some (Kept p) -> Some p | Some Unfit | None -> None)

(* Load the workload and build the layout a run of [technique] uses. *)
let prepare ?profile ~scale ~config ~technique (workload : Vmbp_workloads.t) =
  Vmbp_obs.Span.with_ ~name:"layout"
    ~args:[ ("workload", workload.Vmbp_workloads.name) ]
    (fun () ->
      let loaded = workload.Vmbp_workloads.load ~scale in
      let profile = effective_profile ?profile ~scale ~technique workload in
      ( loaded,
        Config.build_layout ?profile config
          ~program:loaded.Vmbp_workloads.program ))

let run_of ~workload ~technique ~cpu result output =
  match result.Engine.trapped with
  | Some msg -> Error (trap_message workload technique msg)
  | None -> Ok { workload; technique; cpu; result; output }

let engine_span (workload : Vmbp_workloads.t) f =
  Vmbp_obs.Span.with_ ~name:"engine"
    ~args:[ ("workload", workload.Vmbp_workloads.name) ]
    f

(* The distinct simulators of [xs], by descriptor, in first-occurrence
   order, and each descriptor's index among them -- or the message its
   constructor raised. *)
let simulators ~key ~create xs =
  let slots = Hashtbl.create 8 and sims = ref [] in
  List.iter
    (fun x ->
      if not (Hashtbl.mem slots (key x)) then
        Hashtbl.add slots (key x)
          (match create x with
          | sim ->
              sims := sim :: !sims;
              Ok (List.length !sims - 1)
          | exception e -> Error (Printexc.to_string e)))
    xs;
  (Array.of_list (List.rev !sims), Hashtbl.find slots)

(* One walk of [path] for every (cpu, predictor override) of [configs]. *)
let walk_configs ?poll ~workload ~technique ~layout ~translation ~path configs
    =
  Vmbp_obs.Registry.add m_path_walks 1;
  let kinds =
    List.map
      (fun (cpu, predictor) ->
        Config.predictor_kind (Config.make ~cpu ?predictor technique))
      configs
  in
  let icache ((cpu : Cpu_model.t), _) = cpu.Cpu_model.icache in
  let predictors, predictor_of =
    simulators ~key:Predictor.descriptor ~create:Predictor.create kinds
  in
  let icaches, icache_of =
    simulators ~key:Icache.descriptor ~create:Icache.create
      (List.map icache configs)
  in
  let counts =
    engine_span workload (fun () ->
        Path_walk.walk ~fuel:engine_fuel ?poll ~translation ~path ~layout
          ~predictors ~icaches ())
  in
  ( List.map2
      (fun config kind ->
        match
          ( predictor_of (Predictor.descriptor kind),
            icache_of (Icache.descriptor (icache config)) )
        with
        | Error msg, _ | _, Error msg -> Error msg
        | Ok predictor, Ok icache ->
            let cpu = fst config in
            run_of ~workload ~technique ~cpu
              (Path_walk.result counts ~cpu ~predictor ~icache)
              (Vm_path.output path))
      configs kinds,
    Array.length predictors + Array.length icaches )

let run ?(scale = 1) ?poll ?predictor ?profile ~cpu ~technique
    (workload : Vmbp_workloads.t) =
  let config = Config.make ~cpu ?predictor technique in
  let loaded, layout = prepare ?profile ~scale ~config ~technique workload in
  let s = loaded.Vmbp_workloads.fresh_session () in
  let result =
    engine_span workload (fun () ->
        Engine.run ~fuel:engine_fuel ?poll ~config ~layout
          ~exec:s.Vmbp_workloads.exec ())
  in
  let output = s.Vmbp_workloads.output () in
  match run_of ~workload ~technique ~cpu result output with
  | Ok r -> r
  | Error msg -> raise (Run_failed msg)

let walk_group ?(scale = 1) ?poll ~cap_bytes ~technique ~configs
    (workload : Vmbp_workloads.t) =
  (* An unfit workload builds nothing here: it runs live. *)
  let loaded = workload.Vmbp_workloads.load ~scale in
  match vm_path ?poll ~cap_bytes workload loaded with
  | None -> None
  | Some path ->
      (* Layouts depend on technique and costs only, never on the CPU. *)
      let _, layout =
        prepare ~scale ~config:(Config.make technique) ~technique workload
      in
      Some
        (walk_configs ?poll ~workload ~technique ~layout
           ~translation:(translate layout) ~path configs)

let run_result ?scale ?poll ?predictor ?profile ~cpu ~technique workload =
  match run ?scale ?poll ?predictor ?profile ~cpu ~technique workload with
  | r -> Ok r
  | exception Run_failed msg -> Error msg
  | exception exn -> Error (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* Self-check: the same run policy, but through [Audit.dual_run], which
   drives the production simulators and the naive reference models over
   the same event stream and stops at the first disagreement. *)

let run_checked ?(scale = 1) ?poll ?predictor ?profile ?fast_maker ?reference
    ~audit ~cell ~cpu ~technique (workload : Vmbp_workloads.t) =
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
          Audit.dual_run ~fuel:engine_fuel ?poll ?fast ?reference ~cell
            ~config ~layout ~exec:session.Vmbp_workloads.exec ())
    in
    (checked, session)
  with
  | Ok result, session -> (
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
      let d = Audit.record_divergence ?fast_maker ?events audit d in
      Error
        (Printf.sprintf "self-check divergence at event %d: %s"
           d.Audit.d_index d.Audit.d_detail)
  | exception Run_failed msg -> Error msg
  | exception exn -> Error (Printexc.to_string exn)

let speedup ~baseline r = baseline.result.Engine.cycles /. r.result.Engine.cycles
