(* The decomposition pass: the benchmark calls each layer's public
   functions itself, over a fixed set of Figure 7-9 groups (both VMs,
   static and dynamic techniques), and times every call in process CPU
   seconds inside a span of its own.  Rates are work over summed CPU time,
   so each layer is measured on the same inputs in every run. *)

open Vmbp_core
module M = Vmbp_machine
module Span = Vmbp_obs.Span

let find vm name = Option.get (Vmbp_workloads.find ~vm name)

let groups ~smoke =
  let all =
    [
      (find Forth "bench-gc", Technique.static_both (), M.Cpu_model.celeron_800);
      (find Forth "brew", Technique.dynamic_repl, M.Cpu_model.pentium4_northwood);
      ( find Jvm "compress",
        Technique.with_static_across_bb (),
        M.Cpu_model.pentium4_northwood );
      (find Jvm "mpeg", Technique.dynamic_both, M.Cpu_model.pentium4_northwood);
    ]
  in
  if smoke then [ List.nth all 0; List.nth all 2 ] else all

(* Summed CPU seconds and work units per measured call site. *)
type acc = { mutable cpu : float; mutable work : float; mutable calls : float list }

let accs : (string, acc) Hashtbl.t = Hashtbl.create 16

let measure name ~work f =
  let v, cpu = Meter.timed (fun () -> Span.with_ ~name f) in
  let a =
    match Hashtbl.find_opt accs name with
    | Some a -> a
    | None ->
        let a = { cpu = 0.; work = 0.; calls = [] } in
        Hashtbl.replace accs name a;
        a
  in
  a.cpu <- a.cpu +. cpu;
  a.work <- a.work +. work v;
  a.calls <- cpu :: a.calls;
  v

let acc name = Hashtbl.find accs name
let rate name = (acc name).work /. (acc name).cpu

let null_sink =
  {
    Engine.on_dispatch = (fun ~branch:_ ~target:_ ~opcode:_ ~vm_transfer:_ -> ());
    on_fetch = (fun ~addr:_ ~bytes:_ ~opcode:_ -> ());
  }

let predictor_sink p =
  {
    null_sink with
    Engine.on_dispatch =
      (fun ~branch ~target ~opcode ~vm_transfer:_ ->
        ignore (M.Predictor.access p ~branch ~target ~opcode));
  }

let icache_sink ic =
  let hits = ref 0 and misses = ref 0 in
  {
    null_sink with
    Engine.on_fetch = (fun ~addr ~bytes ~opcode:_ -> M.Icache.fetch ic ~addr ~bytes ~hits ~misses);
  }

let btb_bank =
  List.map
    (fun (entries, associativity) ->
      M.Predictor.Btb { M.Btb.entries; associativity; two_bit_counters = false })
    [ (256, 1); (512, 2); (512, 4); (1024, 4); (2048, 4); (4096, 4); (4096, 8); (8192, 8) ]

let two_level_bank =
  List.map
    (fun (entries, history) -> M.Predictor.Two_level { M.Two_level.entries; history })
    [ (256, 2); (1024, 4); (4096, 4); (4096, 8) ]

let icache_bank =
  List.map
    (fun (size_bytes, line_bytes, associativity) ->
      M.Icache.make_config ~size_bytes ~line_bytes ~associativity)
    [ (8192, 32, 2); (16384, 32, 4); (32768, 64, 4); (65536, 64, 8) ]

let msteps (steps, _trap) = float_of_int steps /. 1e6

let group ((w : Vmbp_workloads.t), technique, cpu) =
  let fuel = Vmbp_report.Runner.engine_fuel in
  let loaded = w.load ~scale:1 in
  let profile = Vmbp_report.Runner.effective_profile ~scale:1 ~technique w in
  let config = Config.make ~cpu technique in
  let layout () =
    measure "layout" ~work:(fun _ -> 1.) (fun () ->
        Config.build_layout ?profile config ~program:loaded.program)
  in
  let translate layout =
    measure "translate" ~work:(fun _ -> 1.) (fun () -> Engine.translate layout)
  in
  let vm = Vmbp_workloads.vm_name w.vm in
  let session = loaded.fresh_session () in
  let program = Vmbp_vm.Program.copy loaded.program in
  ignore
    (measure (vm ^ ".functional") ~work:msteps (fun () ->
         Engine.run_functional ~fuel ~program ~exec:session.exec ()));
  let events name sink =
    let layout = layout () in
    let translation = translate layout in
    let session = loaded.fresh_session () in
    let metrics = M.Metrics.create () in
    ignore
      (measure name ~work:msteps (fun () ->
           Engine.run_events ~fuel ~translation ~metrics ~layout
             ~exec:session.exec ~sink ()))
  in
  events "loop" null_sink;
  events "btb_sink" (predictor_sink (M.Predictor.create (Config.predictor_kind config)));
  events "icache_sink" (icache_sink (M.Icache.create cpu.M.Cpu_model.icache));
  (let layout = layout () in
   let translation = translate layout in
   let session = loaded.fresh_session () in
   ignore
     (measure "run"
        ~work:(fun (r : Engine.result) -> float_of_int r.steps /. 1e6)
        (fun () ->
          Engine.run ~fuel ~translation ~config ~layout ~exec:session.exec ())));
  let layout = layout () in
  let translation = translate layout in
  let session = loaded.fresh_session () in
  let trace =
    Option.get
      (measure "record"
         ~work:(fun t ->
           match t with
           | Some t -> float_of_int (Vmbp_report.Trace.steps t) /. 1e6
           | None -> 0.)
         (fun () ->
           Vmbp_report.Trace.record ~fuel ~translation ~layout
             ~exec:session.exec ~output:session.output ()))
  in
  let dispatches = float_of_int (Vmbp_report.Trace.dispatch_events trace) in
  let fetches = float_of_int (Vmbp_report.Trace.fetch_events trace) in
  let bank name ~events ~predictors ~icaches =
    ignore
      (measure name
         ~work:(fun n -> events *. float_of_int n /. 1e6)
         (fun () -> Vmbp_report.Trace.replay_bank trace ~predictors ~icaches))
  in
  bank "bank_btb" ~events:dispatches ~predictors:btb_bank ~icaches:[];
  bank "bank_twolevel" ~events:dispatches ~predictors:two_level_bank ~icaches:[];
  bank "bank_icache" ~events:fetches ~predictors:[] ~icaches:icache_bank;
  let bytes = float_of_int (Vmbp_report.Trace.bytes trace) in
  Vmbp_report.Trace.release trace;
  (bytes, dispatches +. fetches)

(* A fixed runner batch with spans on: one two-cell group (record, bank,
   replay) and one singleton group (a direct cell: layout and engine), so
   every runner span has self time in every traced run, whichever paths
   the workload itself takes.  Its cells are paper-grid cells and are
   checked against that workload's references. *)
let runner_probe r ~refs =
  let p4 = M.Cpu_model.pentium4_northwood in
  let cells =
    [
      Vmbp_report.Par_runner.cell ~cpu:M.Cpu_model.celeron_800
        ~technique:Technique.plain (find Forth "bench-gc");
      Vmbp_report.Par_runner.cell ~cpu:p4 ~technique:Technique.plain
        (find Forth "bench-gc");
      Vmbp_report.Par_runner.cell ~cpu:p4 ~technique:Technique.dynamic_repl
        (find Jvm "compress");
    ]
  in
  let timed = Vmbp_report.Par_runner.run_cells cells in
  ignore (Vmbp_report.Par_runner.drain_log ());
  List.iter (Refs.check_timed refs r (ref [])) timed

let run ~smoke ~refs r =
  Span.enable ();
  let load_s, profile_s = Batch.setup () in
  runner_probe r ~refs;
  Batch.span_metrics r (Span.events ());
  let traces = List.map group (groups ~smoke) in
  let bytes = List.fold_left (fun a (b, _) -> a +. b) 0. traces in
  let events = List.fold_left (fun a (_, e) -> a +. e) 0. traces in
  let m = Meter.metric r in
  m "workloads.load_ms" "ms" (load_s *. 1000.);
  m "workloads.profile_s" "s" profile_s;
  m "forth.functional_msteps" "Msteps/s" (rate "forth.functional");
  m "jvm.functional_msteps" "Msteps/s" (rate "jvm.functional");
  m "core.layout_ms" "ms" (1000. *. Meter.median (acc "layout").calls);
  m "core.translate_ms" "ms" (1000. *. Meter.median (acc "translate").calls);
  m "core.loop_msteps" "Msteps/s" (rate "loop");
  m "core.run_msteps" "Msteps/s" (rate "run");
  m "machine.btb_sink_msteps" "Msteps/s" (rate "btb_sink");
  m "machine.icache_sink_msteps" "Msteps/s" (rate "icache_sink");
  m "machine.bank_btb_mev_s" "Mev/s" (rate "bank_btb");
  m "machine.bank_twolevel_mev_s" "Mev/s" (rate "bank_twolevel");
  m "machine.bank_icache_mev_s" "Mev/s" (rate "bank_icache");
  m "report.record_msteps" "Msteps/s" (rate "record");
  m "report.trace_bytes_per_event" "B/event" (bytes /. events);
  m "report.trace_mb" "MB" (bytes /. 1048576.)
