(* The two batch workloads, paper-grid and predictor-sweep: one process
   runs set-up (every workload and its training profile), then the batch
   through the report runner, and checks every cell against the committed
   references. *)

open Vmbp_report
module Span = Vmbp_obs.Span

(* Load every workload and build its training profile, as the report
   runner would on first use.  Returns (load CPU s, profile CPU s). *)
let setup () =
  let each name f =
    snd
      (Meter.timed (fun () ->
           List.iter
             (fun (w : Vmbp_workloads.t) ->
               Span.with_ ~name ~args:[ ("workload", w.name) ] (fun () -> f w))
             Vmbp_workloads.all))
  in
  let load = each "load" (fun w -> ignore (w.load ~scale:1)) in
  let profile =
    each "profile" (fun w ->
        ignore
          (Vmbp_workloads.training_profile ~vm:w.vm ~target:w.name ~scale:1 ()))
  in
  (load, profile)

(* ------------------------------------------------------------------ *)
(* paper-grid: the whole experiment registry at scale 1. *)

let smoke_experiments = [ "table5"; "penalty-sweep"; "btb-sweep" ]

let experiments ~smoke =
  List.filter
    (fun (e : Experiments.t) -> (not smoke) || List.mem e.id smoke_experiments)
    Experiments.all

(* One call per experiment; returns every cell they produced. *)
let grid_calls ~smoke =
  List.concat_map
    (fun (e : Experiments.t) ->
      Span.with_ ~name:"experiment" ~args:[ ("id", e.id) ] (fun () ->
          ignore (e.run ~scale:1));
      Par_runner.drain_log ())
    (experiments ~smoke)

(* ------------------------------------------------------------------ *)
(* predictor-sweep: every workload x the btb-sweep techniques, crossed with
   a seeded draw of simulator configurations, replayed from one recording
   per group. *)

module P = Vmbp_machine.Predictor

let base_cpu = Vmbp_machine.Cpu_model.celeron_800

type config = Pred of P.kind | Icache of Vmbp_machine.Icache.config

let btb_ways = [ 1; 2; 4; 8 ]
let icache_ways = [ 1; 2; 4 ]

(* The draw's universe, by stratum.  The committed references cover every
   member, so any seed checks against them. *)
let btb_stratum ways =
  List.concat_map
    (fun entries ->
      List.map
        (fun two_bit_counters ->
          Pred
            (P.Btb
               { Vmbp_machine.Btb.entries; associativity = ways; two_bit_counters }))
        [ false; true ])
    [ 64; 128; 256; 512; 1024; 2048; 4096 ]

let two_level_stratum =
  List.concat_map
    (fun entries ->
      List.map
        (fun history -> Pred (P.Two_level { Vmbp_machine.Two_level.entries; history }))
        [ 1; 2; 4; 8 ])
    [ 256; 1024; 4096 ]

let case_block_stratum = List.map (fun n -> Pred (P.Case_block n)) [ 64; 256; 1024 ]

let icache_stratum ways =
  List.concat_map
    (fun size_bytes ->
      List.map
        (fun line_bytes ->
          Icache
            (Vmbp_machine.Icache.make_config ~size_bytes ~line_bytes
               ~associativity:ways))
        [ 32; 64 ])
    [ 4096; 8192; 16384; 32768; 65536 ]

(* Strata and how many configurations each run draws from them.  Drawing
   a fixed count per stratum keeps the simulation cost of a run nearly the
   same for every seed. *)
let strata ~smoke =
  let k n = if smoke then min n 1 else n in
  List.map (fun w -> (btb_stratum w, k 2)) btb_ways
  @ [ (two_level_stratum, k 2); (case_block_stratum, if smoke then 0 else 1) ]
  @ List.map (fun w -> (icache_stratum w, if smoke then 0 else 1)) icache_ways

let universe = List.concat_map fst (strata ~smoke:false)

let draw ~seed ~smoke =
  let st = Random.State.make [| seed |] in
  List.concat_map
    (fun (members, n) ->
      let a = Array.of_list members in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      Array.to_list (Array.sub a 0 n))
    (strata ~smoke)

let techniques =
  Vmbp_core.Technique.[ plain; static_repl (); dynamic_repl ]

let groups ~smoke =
  let ws =
    if smoke then
      [ List.hd Vmbp_workloads.forth; List.hd Vmbp_workloads.jvm ]
    else Vmbp_workloads.all
  in
  List.concat_map (fun w -> List.map (fun t -> (w, t)) techniques) ws

let cell (w, technique) = function
  | Pred k ->
      Par_runner.cell ~tag:"predictor-sweep" ~scale:1 ~predictor:k
        ~cpu:base_cpu ~technique w
  | Icache ic ->
      let cpu =
        {
          base_cpu with
          Vmbp_machine.Cpu_model.name =
            base_cpu.name ^ "/" ^ Vmbp_machine.Icache.descriptor ic;
          icache = ic;
        }
      in
      Par_runner.cell ~tag:"predictor-sweep" ~scale:1 ~cpu ~technique w

(* One call per group: all of the group's cells in one request,
   which the runner serves from one recording and one banked replay. *)
let sweep_calls ~seed ~smoke =
  let configs = draw ~seed ~smoke in
  List.concat_map
    (fun ((w : Vmbp_workloads.t), t) ->
      let cells = List.map (cell (w, t)) configs in
      let timed =
        Span.with_ ~name:"group"
          ~args:[ ("workload", w.name); ("technique", Vmbp_core.Technique.name t) ]
          (fun () -> Par_runner.run_cells cells)
      in
      ignore (Par_runner.drain_log ());
      timed)
    (groups ~smoke)

(* ------------------------------------------------------------------ *)
(* Runner counters over a batch, as the cells document defines them. *)

let counter name =
  Option.value ~default:0L (Vmbp_obs.Registry.find_counter name) |> Int64.to_float

let report_counts r (cells : Par_runner.timed list) =
  let count p = float_of_int (List.length (List.filter p cells)) in
  let live m (t : Par_runner.timed) = t.mode = m && not t.from_journal in
  let n = float_of_int (List.length cells) in
  let translations = counter "engine.translations" in
  let plan_reuses = counter "engine.plan_reuses" in
  let result_hits = counter "result_cache.hits" in
  let m = Meter.metric r in
  m "report.cells" "count" n;
  m "report.engine_runs" "count"
    (count (live Par_runner.Direct) +. count (live Par_runner.Record));
  m "report.replays" "count" (count (live Par_runner.Replay));
  m "report.result_hits" "count" result_hits;
  m "report.translations" "count" translations;
  m "report.plan_reuses" "count" plan_reuses;
  m "report.bank_replays" "count" (float_of_int (Par_runner.bank_replays ()));
  m "report.banked_configs" "count" (float_of_int (Par_runner.banked_configs ()));
  m "report.result_hit_rate" "ratio" (if n > 0. then result_hits /. n else 0.);
  m "report.plan_reuse_rate" "ratio"
    (if translations > 0. then plan_reuses /. translations else 0.)

(* VM steps executed by engine runs (direct and recording cells). *)
let engine_steps (cells : Par_runner.timed list) =
  List.fold_left
    (fun acc (t : Par_runner.timed) ->
      match (t.mode, t.outcome) with
      | (Par_runner.Direct | Record), Ok run ->
          acc + run.Runner.result.Vmbp_core.Engine.steps
      | _ -> acc)
    0 cells

(* Self time of the runner's existing spans, by layer. *)
let span_metrics r events =
  let selfs = Meter.self_times events in
  let m name span = Meter.metric r name "s" (Meter.self_sum selfs span) in
  m "report.cell_self_s" "cell";
  m "report.record_self_s" "record";
  m "report.bank_self_s" "bank";
  m "report.replay_self_s" "replay";
  m "core.layout_self_s" "layout";
  m "core.engine_self_s" "engine"

let gc_metrics r ~minor_words ~major ~steps =
  Meter.metric r "gc.minor_mwords" "Mwords" (minor_words /. 1e6);
  Meter.metric r "gc.major_collections" "count" (float_of_int major);
  Meter.metric r "gc.minor_words_per_step" "words/step"
    (if steps > 0 then minor_words /. float_of_int steps else 0.)

(* Run one batch workload: set-up, the measured calls, reference checks,
   and the metrics of an untraced or a traced process. *)
let run ~workload ~seed ~smoke ~traced ~refs r =
  if traced then Span.enable ();
  Vmbp_obs.Registry.reset ();
  let load_s, profile_s = setup () in
  Meter.metric r "setup_s" "s" (load_s +. profile_s);
  let gc0 = Gc.quick_stat () in
  let cells, cpu_s =
    Meter.timed (fun () ->
        match workload with
        | `Grid -> grid_calls ~smoke
        | `Sweep -> sweep_calls ~seed ~smoke)
  in
  let gc1 = Gc.quick_stat () in
  let seen = ref [] in
  List.iter (Refs.check_timed refs r seen) cells;
  Meter.info r "outputs" (Refs.digest !seen);
  let n = List.length cells in
  Meter.metric r "cpu_s" "s" cpu_s;
  Meter.metric r "peak_rss_mb" "MB" (Meter.peak_rss_mb ());
  Meter.metric r "cpu_us_per_req" "us" (cpu_s *. 1e6 /. float_of_int (max 1 n));
  (* A batch has no per-request latency: its cells return together.  The
     shared latency metric is therefore the batch's CPU time per cell (a
     median over calls of unequal cost would rest on one call). *)
  Meter.metric r "p50_ms" "ms" (cpu_s *. 1e3 /. float_of_int (max 1 n));
  if traced then begin
    Meter.metric r "workloads.load_ms" "ms" (load_s *. 1000.);
    Meter.metric r "workloads.profile_s" "s" profile_s;
    report_counts r cells;
    span_metrics r (Span.events ());
    gc_metrics r
      ~minor_words:(gc1.Gc.minor_words -. gc0.Gc.minor_words)
      ~major:(gc1.Gc.major_collections - gc0.Gc.major_collections)
      ~steps:(engine_steps cells)
  end
