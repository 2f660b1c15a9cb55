(* Tests of the reporting layer: the experiment registry, the dispatch
   tracer, table rendering, comparator models, and the headline shape
   assertions that the reproduction must satisfy. *)

open Vmbp_core
open Vmbp_machine

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Table rendering *)

let test_table_render () =
  let s =
    Vmbp_report.Table.render ~headers:[ "name"; "value" ]
      ~rows:[ [ "alpha"; "1" ]; [ "beta-long"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  check_int "header, rule, 2 rows, trailing newline" 5 (List.length lines);
  (* all rows equal width *)
  (match lines with
  | header :: rule :: rest ->
      List.iter
        (fun line ->
          if line <> "" then
            check_int "aligned" (String.length header) (String.length line))
        (rule :: rest)
  | _ -> Alcotest.fail "missing lines");
  check_bool "human_int K" true (Vmbp_report.Table.human_int 12_345 = "12.3K");
  check_bool "human_int M" true (Vmbp_report.Table.human_int 12_345_678 = "12.3M");
  check_bool "human_int small" true (Vmbp_report.Table.human_int 999 = "999")

(* ------------------------------------------------------------------ *)
(* Dispatch traces (Tables I-IV as assertions, not just prose) *)

let trace technique ?profile () =
  let program = Vmbp_toyvm.Toy_vm.table1_loop () in
  let state = Vmbp_toyvm.Toy_vm.create_state ~counters:(Array.make 16 20) () in
  Vmbp_report.Dispatch_trace.trace ~technique ?profile ~program
    ~exec:(Vmbp_toyvm.Toy_vm.exec state) ~skip:8 ~take:8 ()

let misses rows =
  List.length
    (List.filter (fun r -> not r.Vmbp_report.Dispatch_trace.correct) rows)

let test_trace_switch_all_miss () =
  check_int "switch: 8/8 misses" 8 (misses (trace Technique.switch ()))

let test_trace_threaded_half_miss () =
  let rows = trace Technique.plain () in
  check_int "threaded: 4/8 misses" 4 (misses rows);
  (* the missing branch is always A's *)
  List.iter
    (fun r ->
      if not r.Vmbp_report.Dispatch_trace.correct then
        Alcotest.(check string)
          "only A mispredicts" "br-A" r.Vmbp_report.Dispatch_trace.btb_entry)
    rows

let test_trace_replication_no_miss () =
  let program = Vmbp_toyvm.Toy_vm.table1_loop () in
  let profile = Vmbp_vm.Profile.empty ~max_seq_len:4 in
  Vmbp_vm.Profile.add_program profile program;
  check_int "replication: 0/8 misses" 0
    (misses (trace (Technique.static_repl ~n:8 ()) ~profile ()));
  check_int "superinstruction: 0 misses" 0
    (misses (trace (Technique.static_super ~n:4 ()) ~profile ()))

(* A JVM workload quickens from its first instructions on, and its
   dynamic superinstructions dispatch out of not-yet-quickened gaps: the
   trace runs through both instead of stopping at the first quickening. *)
let test_trace_jvm_past_quickening () =
  let w = Option.get (Vmbp_workloads.find ~vm:Vmbp_workloads.Jvm "compress") in
  let loaded = w.Vmbp_workloads.load ~scale:1 in
  let rows technique ~skip ~take =
    let session = loaded.Vmbp_workloads.fresh_session () in
    Vmbp_report.Dispatch_trace.trace ~technique
      ~program:loaded.Vmbp_workloads.program
      ~exec:session.Vmbp_workloads.exec ~skip ~take ()
  in
  List.iter
    (fun technique ->
      let name = Technique.name technique in
      let all = rows technique ~skip:0 ~take:50 in
      Alcotest.(check (list int))
        (name ^ ": 50 rows, numbered") (List.init 50 succ)
        (List.map (fun r -> r.Vmbp_report.Dispatch_trace.step) all);
      let field r =
        ( r.Vmbp_report.Dispatch_trace.vm_instr,
          r.Vmbp_report.Dispatch_trace.actual,
          r.Vmbp_report.Dispatch_trace.correct )
      in
      Alcotest.(check (list (triple string string bool)))
        (name ^ ": --skip 40 continues the same trace")
        (List.map field (List.filteri (fun i _ -> i >= 40) all))
        (List.map field (rows technique ~skip:40 ~take:10)))
    [ Technique.plain; Technique.dynamic_super ]

(* ------------------------------------------------------------------ *)
(* Comparator models *)

let test_native_model_ordering () =
  let w = Option.get (Vmbp_workloads.find ~vm:Vmbp_workloads.Forth "bench-gc") in
  let plain =
    Vmbp_report.Runner.run ~cpu:Cpu_model.pentium4_northwood
      ~technique:Technique.plain w
  in
  let slots =
    Vmbp_vm.Program.length (w.Vmbp_workloads.load ~scale:1).Vmbp_workloads.program
  in
  let cycles m =
    Vmbp_report.Native_model.cycles m ~cpu:Cpu_model.pentium4_northwood
      ~costs:Costs.default ~plain:plain.Vmbp_report.Runner.result ~slots
  in
  let big = cycles Vmbp_report.Native_model.bigforth in
  let hotspot_mixed = cycles Vmbp_report.Native_model.hotspot_mixed in
  let kaffe_int = cycles Vmbp_report.Native_model.kaffe_interp in
  let hotspot_int = cycles Vmbp_report.Native_model.hotspot_interp in
  let plain_cycles = plain.Vmbp_report.Runner.result.Engine.cycles in
  check_bool "native compilers beat the interpreter" true (big < plain_cycles);
  check_bool "hotspot mixed beats plain" true (hotspot_mixed < plain_cycles);
  check_bool "kaffe interpreter is slower than plain" true
    (kaffe_int > plain_cycles);
  check_bool "hotspot interpreter is a bit faster than plain" true
    (hotspot_int < plain_cycles && hotspot_int > 0.5 *. plain_cycles)

(* ------------------------------------------------------------------ *)
(* Experiment registry *)

let test_registry_complete () =
  (* every paper table and figure has an experiment *)
  List.iter
    (fun id ->
      check_bool id true (Vmbp_report.Experiments.find id <> None))
    [
      "table1"; "table2"; "table3"; "table4"; "table5"; "table6"; "table7";
      "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14";
      "fig15"; "fig16"; "table8"; "table9"; "table10";
    ];
  check_bool "unknown id" true (Vmbp_report.Experiments.find "fig99" = None)

let test_cheap_experiments_render () =
  (* The worked-example tables and inventories are cheap: run them for real
     and sanity-check the rendering. *)
  List.iter
    (fun id ->
      let e = Option.get (Vmbp_report.Experiments.find id) in
      let s = e.Vmbp_report.Experiments.run ~scale:1 in
      check_bool (id ^ " nonempty") true (String.length s > 40))
    [ "table1"; "table2"; "table3"; "table4"; "table6"; "table7" ]

(* ------------------------------------------------------------------ *)
(* Headline shapes on one benchmark per VM (kept cheap) *)

let run ~vm ~workload ~technique ~cpu =
  let w = Option.get (Vmbp_workloads.find ~vm workload) in
  Vmbp_report.Runner.run ~cpu ~technique w

let test_shape_forth_ordering () =
  let cycles t =
    (run ~vm:Vmbp_workloads.Forth ~workload:"bench-gc" ~technique:t
       ~cpu:Cpu_model.pentium4_northwood)
      .Vmbp_report.Runner.result
      .Engine.cycles
  in
  let switch = cycles Technique.switch in
  let plain = cycles Technique.plain in
  let dsuper = cycles Technique.dynamic_super in
  let across = cycles Technique.across_bb in
  let wss = cycles (Technique.with_static_super ()) in
  check_bool "plain beats switch" true (plain < switch);
  check_bool "dynamic super beats plain" true (dsuper < plain);
  check_bool "across bb beats dynamic super" true (across < dsuper);
  check_bool "with static super is best" true (wss < across);
  check_bool "speedup within sane bounds" true
    (plain /. wss > 2. && plain /. wss < 12.)

let test_shape_misprediction_rates () =
  (* Paper Section 3: switch 81-98% mispredicted, threaded 50-63%. *)
  let rate t =
    let r =
      run ~vm:Vmbp_workloads.Forth ~workload:"cross" ~technique:t
        ~cpu:Cpu_model.pentium4_northwood
    in
    100. *. Metrics.misprediction_rate r.Vmbp_report.Runner.result.Engine.metrics
  in
  let switch = rate Technique.switch in
  let plain = rate Technique.plain in
  check_bool (Printf.sprintf "switch rate %.1f in 75-100" switch) true
    (switch > 75.);
  check_bool (Printf.sprintf "threaded rate %.1f in 35-75" plain) true
    (plain > 35. && plain < 75.)

let test_shape_jvm_smaller_ratio () =
  (* Paper Section 7.2.2: indirect-branch share is much higher for Forth
     than for the JVM. *)
  let ratio ~vm ~workload =
    let r =
      run ~vm ~workload ~technique:Technique.plain
        ~cpu:Cpu_model.pentium4_northwood
    in
    let m = r.Vmbp_report.Runner.result.Engine.metrics in
    float_of_int m.Metrics.indirect_branches
    /. float_of_int m.Metrics.native_instrs
  in
  let forth = ratio ~vm:Vmbp_workloads.Forth ~workload:"cross" in
  let jvm = ratio ~vm:Vmbp_workloads.Jvm ~workload:"db" in
  check_bool "forth ratio above jvm's" true (forth > jvm +. 0.02)

let test_shape_static_mix_improves () =
  let data =
    Vmbp_report.Experiments.static_mix ~scale:1 ~vm:Vmbp_workloads.Forth
      ~workload:"bench-gc" ~cpu:Cpu_model.celeron_800 ~totals:[ 0; 400 ]
  in
  match data with
  | [ (0, base_series); (400, series) ] ->
      let base_cycles = match base_series with (_, c, _) :: _ -> c | [] -> 0. in
      List.iter
        (fun (_pct, cycles, _mp) ->
          check_bool "400 extra instructions always beat plain" true
            (cycles < base_cycles))
        series
  | _ -> Alcotest.fail "unexpected static_mix result"

let test_subroutine_threading_shape () =
  (* Dispatch indirect branches disappear; only VM transfers remain. *)
  let r =
    run ~vm:Vmbp_workloads.Forth ~workload:"bench-gc"
      ~technique:Technique.subroutine ~cpu:Cpu_model.pentium4_northwood
  in
  let plain =
    run ~vm:Vmbp_workloads.Forth ~workload:"bench-gc"
      ~technique:Technique.plain ~cpu:Cpu_model.pentium4_northwood
  in
  let m = r.Vmbp_report.Runner.result.Engine.metrics in
  let mp = plain.Vmbp_report.Runner.result.Engine.metrics in
  check_bool "far fewer indirect branches" true
    (m.Metrics.indirect_branches * 4 < mp.Metrics.indirect_branches);
  check_bool "faster than plain" true
    (r.Vmbp_report.Runner.result.Engine.cycles
    < plain.Vmbp_report.Runner.result.Engine.cycles)

(* ------------------------------------------------------------------ *)
(* Parallel runner *)

module PR = Vmbp_report.Par_runner

(* A run context with [n] jobs and every other setting at its default. *)
let with_jobs n = { (PR.default_ctx ()) with PR.jobs = n }

(* A synthetic workload over the toy VM: cheap enough to run a grid of them
   many times, and optionally trapping to exercise fault isolation. *)
let toy_workload ?(trap = false) name =
  {
    Vmbp_workloads.vm = Vmbp_workloads.Forth;
    name;
    description = "synthetic toy workload";
    load =
      (fun ~scale:_ ->
        let program = Vmbp_toyvm.Toy_vm.table1_loop () in
        {
          Vmbp_workloads.program;
          fresh_session =
            (fun () ->
              let state =
                Vmbp_toyvm.Toy_vm.create_state ~counters:(Array.make 16 200) ()
              in
              let exec p pc =
                if trap then Vmbp_vm.Control.Trap "boom"
                else Vmbp_toyvm.Toy_vm.exec state p pc
              in
              { Vmbp_workloads.exec; output = (fun () -> "") });
        });
  }

let toy_cells () =
  (* dynamic techniques only: no training profile needed for a toy program *)
  List.concat_map
    (fun w ->
      List.map
        (fun t ->
          Vmbp_report.Par_runner.cell ~tag:"test" ~cpu:Cpu_model.ideal
            ~technique:t w)
        [ Technique.plain; Technique.switch; Technique.dynamic_super;
          Technique.dynamic_repl ])
    [ toy_workload "toy-a"; toy_workload "toy-b"; toy_workload "toy-c" ]

let signature results =
  List.map
    (fun (t : Vmbp_report.Par_runner.timed) ->
      ( Vmbp_report.Par_runner.cell_name t.Vmbp_report.Par_runner.cell,
        match t.Vmbp_report.Par_runner.outcome with
        | Ok r ->
            Printf.sprintf "ok:%.0f:%d" r.Vmbp_report.Runner.result.Engine.cycles
              r.Vmbp_report.Runner.result.Engine.metrics.Metrics.mispredicts
        | Error msg -> "error:" ^ msg ))
    results

let test_par_runner_deterministic () =
  (* The same cell list must produce identical results, in input order, for
     every job count: the sequential path is the reference. *)
  let reference = signature (Vmbp_report.Par_runner.run_cells (toy_cells ())) in
  check_int "one result per cell" 12 (List.length reference);
  List.iter
    (fun jobs ->
      let got =
        signature (PR.run_cells ~ctx:(with_jobs jobs) (toy_cells ()))
      in
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "jobs=%d matches sequential" jobs)
        reference got)
    [ 2; 8 ];
  ignore (Vmbp_report.Par_runner.drain_log ())

let test_par_runner_fault_isolation () =
  let cells =
    List.map
      (fun (trap, name) ->
        Vmbp_report.Par_runner.cell ~tag:"test" ~cpu:Cpu_model.ideal
          ~technique:Technique.plain (toy_workload ~trap name))
      [ (false, "good-1"); (true, "bad"); (false, "good-2") ]
  in
  List.iter
    (fun jobs ->
      let results =
        Vmbp_report.Par_runner.run_cells ~ctx:(with_jobs jobs) cells
      in
      match
        List.map (fun (t : Vmbp_report.Par_runner.timed) -> t.Vmbp_report.Par_runner.outcome) results
      with
      | [ Ok _; Error msg; Ok _ ] ->
          check_bool "trap message surfaces" true
            (String.length msg > 0
            && String.length msg >= 4
            &&
            let has_boom = ref false in
            for i = 0 to String.length msg - 4 do
              if String.sub msg i 4 = "boom" then has_boom := true
            done;
            !has_boom)
      | _ -> Alcotest.fail "trapping cell must fail alone, siblings succeed")
    [ 1; 4 ];
  ignore (Vmbp_report.Par_runner.drain_log ())

let test_par_runner_json_summary () =
  ignore (Vmbp_report.Par_runner.drain_log ());
  let cells =
    [
      Vmbp_report.Par_runner.cell ~tag:"test" ~cpu:Cpu_model.ideal
        ~technique:Technique.plain (toy_workload "toy-json");
      Vmbp_report.Par_runner.cell ~tag:"test" ~cpu:Cpu_model.ideal
        ~technique:Technique.plain (toy_workload ~trap:true "toy-trap");
    ]
  in
  ignore (Vmbp_report.Par_runner.run_cells cells);
  let logged = Vmbp_report.Par_runner.drain_log () in
  check_int "both cells logged" 2 (List.length logged);
  let json = Vmbp_report.Par_runner.json_summary logged in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let found = ref false in
    for i = 0 to hl - nl do
      if String.sub json i nl = needle then found := true
    done;
    !found
  in
  check_bool "schema marker" true (contains "\"schema\":\"vmbp-cells/8\"");
  check_bool "bank replay counter" true (contains "\"bank_replays\":");
  check_bool "banked config counter" true (contains "\"banked_configs\":");
  check_bool "translation counter" true (contains "\"translations\":");
  check_bool "no plan reuse counter" false (contains "\"plan_reuses\":");
  check_bool "result cache counter" true (contains "\"result_hits\":");
  check_bool "translate wall" true (contains "\"translate_wall_seconds\":");
  check_bool "serve time per cell" true (contains "\"serve_seconds\":");
  check_bool "serve aggregate" true (contains "\"serve_wall_seconds\":");
  check_bool "ok cell serialised" true (contains "\"ok\":true");
  check_bool "failed cell serialised" true (contains "\"ok\":false");
  check_bool "wall time present" true (contains "\"wall_seconds\":");
  check_bool "attempts per cell" true (contains "\"attempts\":1");
  check_bool "from_journal per cell" true (contains "\"from_journal\":false");
  check_bool "retry counter" true (contains "\"retries\":0");
  check_bool "timeout counter" true (contains "\"timeouts\":0");
  check_bool "interrupted counter" true (contains "\"interrupted\":0");
  check_bool "injected-fault counter" true (contains "\"injected_faults\":");
  check_bool "respawn counter" true (contains "\"worker_respawns\":")

(* The planner groups by physical workload, technique and scale, in
   first-occurrence order; it is pure, so the whole scale-1 registry plans
   into the groups the report walks without running a cell. *)
let test_plan_registry () =
  let a = toy_workload "plan-a" and a' = toy_workload "plan-a" in
  let cell ?(scale = 1) ?(cpu = Cpu_model.ideal) w technique =
    PR.cell ~scale ~cpu ~technique w
  in
  Alcotest.(check (list (list int)))
    "toy plan"
    [ [ 0; 3 ]; [ 1 ]; [ 2 ]; [ 4 ] ]
    (PR.plan
       [
         cell a Technique.plain;
         cell a' Technique.plain;
         cell a Technique.switch;
         cell ~cpu:Cpu_model.pentium4_northwood a Technique.plain;
         cell ~scale:2 a Technique.plain;
       ]);
  ignore (PR.drain_log ());
  let cells =
    List.concat_map
      (fun (e : Vmbp_report.Experiments.t) ->
        fst (e.Vmbp_report.Experiments.plan ~scale:1))
      Vmbp_report.Experiments.all
  in
  let groups = PR.plan cells in
  check_int "cells" 665 (List.length cells);
  check_int "groups, one walk each" 283 (List.length groups);
  check_int "distinct configurations" 432
    (List.length (List.sort_uniq compare (List.map PR.store_key cells)));
  check_bool "each cell in one group" true
    (List.sort compare (List.concat groups) = List.init 665 Fun.id);
  check_bool "ascending within groups, first occurrence across" true
    (List.for_all (fun g -> List.sort compare g = g) groups
    && List.sort compare (List.map List.hd groups) = List.map List.hd groups);
  check_int "nothing ran" 0 (List.length (PR.drain_log ()))

(* ------------------------------------------------------------------ *)
(* Explain: one self-checked run with every mispredict and I-cache miss
   attributed, counting what a run on the production simulators alone
   counts; and observability can never change numbers. *)

let test_explain_matches_checked_counters () =
  List.iter
    (fun (vm, wname, cpu, technique) ->
      let w = Option.get (Vmbp_workloads.find ~vm wname) in
      let audit = Vmbp_report.Audit.create_log ~repro_dir:"." in
      match Vmbp_report.Explain.run ~audit ~cpu ~technique w with
      | Error msg -> Alcotest.failf "%s: explain failed: %s" wname msg
      | Ok t ->
          let r = t.Vmbp_report.Explain.run.Vmbp_report.Runner.result in
          let m = r.Engine.metrics in
          check_int (wname ^ ": every mispredict attributed")
            m.Metrics.mispredicts
            (Vmbp_obs.Attribution.total t.Vmbp_report.Explain.pred_att);
          check_int (wname ^ ": every icache miss attributed")
            m.Metrics.icache_misses
            (Vmbp_obs.Attribution.total t.Vmbp_report.Explain.icache_att);
          (* The independent oracle: a run of the same cell on the
             production simulators alone counts exactly what the
             explained run counted. *)
          let plain =
            (Vmbp_report.Runner.run ~cpu ~technique w).Vmbp_report.Runner
              .result
          in
          let counters m = Format.asprintf "%a" Metrics.pp m in
          Alcotest.(check string)
            (wname ^ ": counters of an unchecked run")
            (counters plain.Engine.metrics) (counters m);
          check_int (wname ^ ": steps of an unchecked run") plain.Engine.steps
            r.Engine.steps;
          let rendered = Vmbp_report.Explain.render ~top:5 t in
          check_bool (wname ^ ": render names the technique") true
            (String.length rendered > 0))
    [
      (* finite BTB on the P4, two-level predictor on the Pentium M, the
         Celeron's 512-entry BTB and 16 KB I-cache, and the ideal CPU's
         unbounded BTB (no sets) and infinite I-cache *)
      (Vmbp_workloads.Forth, "vmgen", Cpu_model.pentium4_northwood,
       Technique.plain);
      (Vmbp_workloads.Forth, "gray", Cpu_model.pentium_m,
       Technique.dynamic_repl);
      (Vmbp_workloads.Jvm, "compress", Cpu_model.celeron_800, Technique.plain);
      (Vmbp_workloads.Forth, "tscp", Cpu_model.ideal, Technique.plain);
    ]

let test_observability_invisible () =
  (* The same cell grid with span collection and metrics on must produce
     byte-identical simulated numbers: observation can never steer. *)
  let run_once () =
    Vmbp_report.Par_runner.clear_trace_cache ();
    let r =
      signature (Vmbp_report.Par_runner.run_cells (toy_cells ()))
    in
    ignore (Vmbp_report.Par_runner.drain_log ());
    r
  in
  let base = run_once () in
  Vmbp_obs.Span.enable ();
  Vmbp_obs.Registry.reset ();
  let traced = Fun.protect ~finally:Vmbp_obs.Span.disable run_once in
  Alcotest.(check (list (pair string string)))
    "numbers identical with observability on" base traced;
  check_bool "spans were actually collected" true (Vmbp_obs.Span.count () > 0);
  check_bool "metrics were actually collected" true
    (match Vmbp_obs.Registry.find_counter "vm_path.records" with
    | Some n -> n > 0L
    | None -> false)

(* ------------------------------------------------------------------ *)
(* Record once, walk many: every cell of a group walk must be
   field-for-field identical to a live engine run of the same
   configuration.  The token-trace cases at the end check {!Trace}, which
   the decomposition benchmark still times. *)

let check_result_equal name (a : Engine.result) (b : Engine.result) =
  let ma = a.Engine.metrics and mb = b.Engine.metrics in
  let f field va vb = check_int (name ^ " " ^ field) va vb in
  f "vm_instrs" ma.Metrics.vm_instrs mb.Metrics.vm_instrs;
  f "native_instrs" ma.Metrics.native_instrs mb.Metrics.native_instrs;
  f "dispatches" ma.Metrics.dispatches mb.Metrics.dispatches;
  f "indirect_branches" ma.Metrics.indirect_branches
    mb.Metrics.indirect_branches;
  f "mispredicts" ma.Metrics.mispredicts mb.Metrics.mispredicts;
  f "vm_branch_mispredicts" ma.Metrics.vm_branch_mispredicts
    mb.Metrics.vm_branch_mispredicts;
  f "icache_fetches" ma.Metrics.icache_fetches mb.Metrics.icache_fetches;
  f "icache_misses" ma.Metrics.icache_misses mb.Metrics.icache_misses;
  f "code_bytes" ma.Metrics.code_bytes mb.Metrics.code_bytes;
  f "quickenings" ma.Metrics.quickenings mb.Metrics.quickenings;
  Alcotest.(check (float 0.)) (name ^ " cycles") a.Engine.cycles b.Engine.cycles;
  Alcotest.(check (float 0.)) (name ^ " seconds") a.Engine.seconds
    b.Engine.seconds;
  f "steps" a.Engine.steps b.Engine.steps;
  Alcotest.(check (option string)) (name ^ " trapped") a.Engine.trapped
    b.Engine.trapped

(* One group walk over [configs], which records the workload's path
   first when no earlier walk kept it. *)
let walk_group ?(scale = 1) ~technique ~configs w =
  match
    Vmbp_report.Runner.walk_group ~scale ~cap_bytes:max_int ~technique
      ~configs w
  with
  | Some (results, _) -> results
  | None -> Alcotest.fail "a complete recording must keep the workload's path"

(* Each walked configuration against a live run of it alone. *)
let check_walk_matches_live ~label ~technique ~configs w =
  List.iter2
    (fun ((cpu : Cpu_model.t), predictor) walked ->
      let label =
        Printf.sprintf "%s/%s/%s" label cpu.Cpu_model.name
          (match predictor with Some p -> Predictor.kind_name p | None -> "cpu")
      in
      match
        (walked, Vmbp_report.Runner.run_result ?predictor ~cpu ~technique w)
      with
      | Ok a, Ok b ->
          check_result_equal label b.Vmbp_report.Runner.result
            a.Vmbp_report.Runner.result;
          Alcotest.(check string)
            (label ^ " output") b.Vmbp_report.Runner.output
            a.Vmbp_report.Runner.output
      | Error a, Error b -> Alcotest.(check string) (label ^ " error") b a
      | _ -> Alcotest.fail (label ^ ": walked and live disagree"))
    configs
    (walk_group ~technique ~configs w)

let test_replay_equivalence_gforth () =
  (* Every paper Gforth variant, two CPUs, plus a predictor override: one
     walk per variant must reproduce each live run exactly. *)
  let w = Option.get (Vmbp_workloads.find ~vm:Vmbp_workloads.Forth "bench-gc") in
  let configs =
    [
      (Cpu_model.celeron_800, None);
      (Cpu_model.pentium4_northwood, None);
      (Cpu_model.pentium4_northwood, Some Predictor.Perfect);
    ]
  in
  List.iter
    (fun technique ->
      check_walk_matches_live ~label:(Technique.name technique) ~technique
        ~configs w)
    Technique.paper_gforth_variants

let test_replay_equivalence_jvm_quickening () =
  (* A JVM workload mutates its own program (quickening): the walk must
     apply every recorded quickening and still match live runs, on more
     than one CPU. *)
  let w = Option.get (Vmbp_workloads.find ~vm:Vmbp_workloads.Jvm "db") in
  let technique = Technique.plain in
  let live =
    Vmbp_report.Runner.run ~cpu:Cpu_model.celeron_800 ~technique w
  in
  check_bool "workload actually quickens" true
    (live.Vmbp_report.Runner.result.Engine.metrics.Metrics.quickenings > 0);
  check_walk_matches_live ~label:"jvm" ~technique
    ~configs:[ (Cpu_model.celeron_800, None); (Cpu_model.pentium_m, None) ]
    w

(* A toy workload loaded once, like a registry workload: kept paths key
   on the loaded workload's physical identity. *)
let loaded_once_toy ?trap name =
  let w = toy_workload ?trap name in
  let loaded = lazy (w.Vmbp_workloads.load ~scale:1) in
  { w with Vmbp_workloads.load = (fun ~scale:_ -> Lazy.force loaded) }

let test_replay_trap_and_fuel () =
  (* A trapping run keeps its path and walks to the same Error a live
     run_result produces. *)
  check_walk_matches_live ~label:"trap" ~technique:Technique.plain
    ~configs:[ (Cpu_model.ideal, None); (Cpu_model.pentium4_northwood, None) ]
    (loaded_once_toy ~trap:true "walk-trap");
  (* Fuel exhaustion mid-run: one walk of a complete path under less fuel
     stops where each live run stops, with the same partial metrics. *)
  let w = toy_workload "walk-fuel" in
  let loaded = w.Vmbp_workloads.load ~scale:1 in
  let layout () =
    Config.build_layout (Config.make Technique.plain)
      ~program:loaded.Vmbp_workloads.program
  in
  let path =
    let s = loaded.Vmbp_workloads.fresh_session () in
    let program = Vmbp_vm.Program.copy loaded.Vmbp_workloads.program in
    let recorder, exec =
      Vm_path.recorder ~slots:(Vmbp_vm.Program.length program)
        s.Vmbp_workloads.exec
    in
    let steps, trapped = Engine.run_functional ~program ~exec () in
    Result.get_ok (Vm_path.finish recorder ~steps ~trapped ~output:"")
  in
  let cpus = [ Cpu_model.celeron_800; Cpu_model.pentium4_northwood ] in
  let kinds =
    List.map (fun (c : Cpu_model.t) -> c.Cpu_model.predictor) cpus
  in
  let counts =
    Path_walk.walk ~fuel:50 ~path ~layout:(layout ())
      ~predictors:(Array.of_list (List.map Predictor.create kinds))
      ~icaches:
        (Array.of_list
           (List.map (fun (c : Cpu_model.t) -> Icache.create c.Cpu_model.icache) cpus))
      ()
  in
  List.iteri
    (fun j (cpu : Cpu_model.t) ->
      let s = loaded.Vmbp_workloads.fresh_session () in
      let live =
        Engine.run ~fuel:50 ~config:(Config.make ~cpu Technique.plain)
          ~layout:(layout ()) ~exec:s.Vmbp_workloads.exec ()
      in
      check_bool "fuel run trapped" true (live.Engine.trapped <> None);
      check_result_equal
        ("fuel-exhausted/" ^ cpu.Cpu_model.name)
        live
        (Path_walk.result counts ~cpu ~predictor:j ~icache:j))
    cpus

let test_record_overflow_and_fallback () =
  (* A path over its budget is not kept: the workload is unfit, has
     nothing to walk and runs live from then on, whatever the cap... *)
  let w = loaded_once_toy "walk-cap" in
  let unfit cap_bytes =
    Vmbp_report.Runner.walk_group ~cap_bytes ~technique:Technique.plain
      ~configs:[ (Cpu_model.ideal, None) ]
      w
    = None
  in
  check_bool "a path over the cap is not walked" true (unfit 64);
  check_bool "an unfit workload never records again" true (unfit max_int);
  (* ...and the planner runs every cell live with --trace-cap-mb 0, yet
     agrees with the walked run: one group walk records the path and
     serves every cell. *)
  Vmbp_report.Par_runner.clear_trace_cache ();
  let cells () =
    let w = loaded_once_toy "walk-fallback" in
    List.map
      (fun cpu ->
        Vmbp_report.Par_runner.cell ~tag:"test" ~cpu
          ~technique:Technique.plain w)
      [ Cpu_model.ideal; Cpu_model.pentium4_northwood; Cpu_model.celeron_800 ]
  in
  let saved = !Vmbp_report.Par_runner.trace_cap_mb in
  Vmbp_report.Par_runner.trace_cap_mb := 0;
  let direct = Vmbp_report.Par_runner.run_cells (cells ()) in
  Vmbp_report.Par_runner.trace_cap_mb := saved;
  let walked = Vmbp_report.Par_runner.run_cells (cells ()) in
  List.iter
    (fun (t : Vmbp_report.Par_runner.timed) ->
      check_bool "cap 0 forces live runs" true
        (t.Vmbp_report.Par_runner.mode = Vmbp_report.Par_runner.Direct))
    direct;
  Alcotest.(check (list string))
    "one group walk"
    [ "record"; "replay"; "replay" ]
    (List.map
       (fun (t : Vmbp_report.Par_runner.timed) ->
         Vmbp_report.Par_runner.mode_name t.Vmbp_report.Par_runner.mode)
       walked);
  Alcotest.(check (list (pair string string)))
    "live and walked agree" (signature direct) (signature walked);
  Vmbp_report.Par_runner.clear_trace_cache ();
  ignore (Vmbp_report.Par_runner.drain_log ())

(* One banked traversal must reproduce every per-configuration replay
   field for field across the full CPU grid and predictor overrides,
   including trapping runs, and a released trace refuses to replay. *)
let test_banked_replay_matches_per_cell () =
  let overrides =
    [
      None;
      Some Predictor.Perfect;
      Some Predictor.Never;
      Some (Predictor.Btb Btb.ideal);
      Some (Predictor.Btb (Btb.classic ~entries:512 ~associativity:4));
      Some (Predictor.Btb (Btb.with_counters ~entries:256 ~associativity:2));
      Some (Predictor.Two_level Two_level.default);
      Some (Predictor.Case_block 256);
    ]
  in
  let grid =
    List.concat_map
      (fun (cpu : Cpu_model.t) ->
        List.map
          (fun p -> (cpu, Option.value ~default:cpu.Cpu_model.predictor p))
          overrides)
      Cpu_model.all
  in
  let distinct f = List.length (List.sort_uniq compare (List.map f grid)) in
  List.iter
    (fun (name, trap) ->
      let record () =
        let w = toy_workload ~trap name in
        let loaded = w.Vmbp_workloads.load ~scale:1 in
        let layout =
          Config.build_layout (Config.make Technique.plain)
            ~program:loaded.Vmbp_workloads.program
        in
        let s = loaded.Vmbp_workloads.fresh_session () in
        Option.get
          (Vmbp_report.Trace.record ~layout ~exec:s.Vmbp_workloads.exec
             ~output:s.Vmbp_workloads.output ())
      in
      let banked = record () and control = record () in
      check_int
        (name ^ ": the bank simulates each distinct configuration")
        (distinct (fun (_, p) -> Predictor.descriptor p)
        + distinct (fun ((c : Cpu_model.t), _) ->
              Icache.descriptor c.Cpu_model.icache))
        (Vmbp_report.Trace.replay_bank banked
           ~predictors:(List.map snd grid)
           ~icaches:
             (List.map (fun ((c : Cpu_model.t), _) -> c.Cpu_model.icache) grid));
      List.iter2
        (fun ((cpu : Cpu_model.t), predictor) a ->
          let label =
            Printf.sprintf "%s/%s/%s" name cpu.Cpu_model.name
              (Predictor.kind_name predictor)
          in
          match
            Vmbp_report.Trace.replay control ~configs:[ (cpu, predictor) ]
          with
          | [ b ] -> check_result_equal label b a
          | _ -> Alcotest.fail (label ^ ": one result per configuration"))
        grid
        (Vmbp_report.Trace.replay banked ~configs:grid);
      Vmbp_report.Trace.release banked;
      check_bool (name ^ ": a released trace refuses to replay") true
        (match Vmbp_report.Trace.replay banked ~configs:grid with
        | _ -> false
        | exception Invalid_argument _ -> true);
      Vmbp_report.Trace.release control)
    [ ("bank-grid", false); ("bank-trap", true) ];
  (* Fuel exhaustion mid-run: the banked counters replay the partial
     metrics exactly. *)
  let w = toy_workload "bank-fuel" in
  let loaded = w.Vmbp_workloads.load ~scale:1 in
  let cpu = Cpu_model.pentium4_northwood in
  let config = Config.make ~cpu Technique.plain in
  let layout =
    Config.build_layout config ~program:loaded.Vmbp_workloads.program
  in
  let s = loaded.Vmbp_workloads.fresh_session () in
  let tr =
    Option.get
      (Vmbp_report.Trace.record ~fuel:50 ~layout ~exec:s.Vmbp_workloads.exec
         ~output:s.Vmbp_workloads.output ())
  in
  let kind = Config.predictor_kind config in
  let session = loaded.Vmbp_workloads.fresh_session () in
  let live =
    Engine.run ~fuel:50 ~config ~layout ~exec:session.Vmbp_workloads.exec ()
  in
  check_bool "bank-fuel: the run ran out of fuel" true
    (live.Engine.trapped = Some Engine.out_of_fuel);
  Alcotest.(check string)
    "bank-fuel: the trace keeps the program output"
    (session.Vmbp_workloads.output ())
    (Vmbp_report.Trace.output tr);
  (match Vmbp_report.Trace.replay tr ~configs:[ (cpu, kind) ] with
  | [ r ] -> check_result_equal "bank-fuel" live r
  | _ -> Alcotest.fail "bank-fuel: one result");
  Vmbp_report.Trace.release tr

let counter = Vmbp_obs.Registry.count

(* A loaded-once toy workload whose first [stalled] sessions sleep 0.2 s
   on their first step, so a recording can be caught in flight. *)
let stalling_toy ?(counters = 200) ~stalled name =
  let w = toy_workload name in
  let program = Vmbp_toyvm.Toy_vm.table1_loop () in
  let sessions = ref 0 in
  let fresh_session () =
    let state =
      Vmbp_toyvm.Toy_vm.create_state ~counters:(Array.make 16 counters) ()
    in
    incr sessions;
    let first = ref (!sessions <= stalled) in
    let exec p pc =
      if !first then begin
        first := false;
        Unix.sleepf 0.2
      end;
      Vmbp_toyvm.Toy_vm.exec state p pc
    in
    { Vmbp_workloads.exec; output = (fun () -> "") }
  in
  let loaded = { Vmbp_workloads.program; fresh_session } in
  { w with Vmbp_workloads.load = (fun ~scale:_ -> loaded) }

(* Two groups of one loaded-once workload on two domains record its path
   once: the group that finds the recording in flight waits for it and
   then walks, so one path is recorded and no cell runs live.  Every
   session stalls on its first step, so the second group always starts
   while the first one is still recording. *)
let test_record_once_across_jobs () =
  Vmbp_report.Par_runner.clear_trace_cache ();
  let w = stalling_toy ~stalled:max_int "walk-two-groups" in
  let cells =
    List.concat_map
      (fun technique ->
        List.map
          (fun cpu ->
            Vmbp_report.Par_runner.cell ~tag:"test" ~cpu ~technique w)
          [ Cpu_model.ideal; Cpu_model.pentium4_northwood; Cpu_model.celeron_800 ])
      [ Technique.plain; Technique.switch ]
  in
  let records = counter "vm_path.records" in
  let timed = Vmbp_report.Par_runner.run_cells ~ctx:(with_jobs 2) cells in
  List.iter
    (fun (t : Vmbp_report.Par_runner.timed) ->
      check_bool "every cell succeeds" true
        (Result.is_ok t.Vmbp_report.Par_runner.outcome))
    timed;
  check_int "exactly one path recorded" 1 (counter "vm_path.records" - records);
  check_int "no live cell" 0
    (List.length
       (List.filter
          (fun (t : Vmbp_report.Par_runner.timed) ->
            t.Vmbp_report.Par_runner.mode = Vmbp_report.Par_runner.Direct)
          timed));
  Vmbp_report.Par_runner.clear_trace_cache ();
  ignore (Vmbp_report.Par_runner.drain_log ())

(* Polls: a group walk polls once before any work -- so a deadline that
   already passed is noticed at once -- and after every block. *)
let test_group_walk_polls () =
  let w = loaded_once_toy "walk-poll" in
  let configs = [ (Cpu_model.ideal, None); (Cpu_model.celeron_800, None) ] in
  ignore (walk_group ~technique:Technique.plain ~configs w);
  let polls = ref 0 in
  let poll () = incr polls in
  (match
     Vmbp_report.Runner.walk_group ~poll ~cap_bytes:max_int
       ~technique:Technique.plain ~configs w
   with
  | Some _ -> ()
  | None -> Alcotest.fail "the path is kept");
  check_bool "a group walk polls before and after its blocks" true
    (!polls >= 2);
  let stalled () = raise Exit in
  check_bool "a passed deadline stops the walk before any work" true
    (match
       Vmbp_report.Runner.walk_group ~poll:stalled ~cap_bytes:max_int
         ~technique:Technique.plain ~configs w
     with
    | _ -> false
    | exception Exit -> true)

(* The bank's poll contract, counted exactly: one entry poll, then one
   per 65536 tokens of each stream it walks, whatever its block size. *)
let test_bank_poll_count () =
  let program = Vmbp_toyvm.Toy_vm.table1_loop () in
  let layout = Config.build_layout (Config.make Technique.plain) ~program in
  let state =
    Vmbp_toyvm.Toy_vm.create_state ~counters:(Array.make 16 40_000) ()
  in
  let tr =
    Option.get
      (Vmbp_report.Trace.record ~layout ~exec:(Vmbp_toyvm.Toy_vm.exec state)
         ~output:(fun () -> "") ())
  in
  let nd = Vmbp_report.Trace.dispatch_events tr in
  let nf = Vmbp_report.Trace.fetch_events tr in
  check_bool "streams span several poll intervals" true
    (nd > 2 * 65536 && nf > 2 * 65536);
  let polls = ref 0 in
  let poll () = incr polls in
  let bank ~predictors ~icaches =
    polls := 0;
    ignore (Vmbp_report.Trace.replay_bank ~poll tr ~predictors ~icaches : int);
    !polls
  in
  let icache size_bytes =
    Icache.make_config ~size_bytes ~line_bytes:32 ~associativity:2
  in
  check_int "dispatch walk" (1 + (nd / 65536))
    (bank
       ~predictors:
         [ Predictor.Btb Btb.ideal; Predictor.Two_level Two_level.default ]
       ~icaches:[]);
  check_int "fetch walk" (1 + (nf / 65536))
    (bank ~predictors:[] ~icaches:[ icache 1024; icache 2048 ]);
  check_int "both walks" (1 + (nd / 65536) + (nf / 65536))
    (bank ~predictors:[ Predictor.Case_block 64 ] ~icaches:[ icache 4096 ]);
  Vmbp_report.Trace.release tr

(* Satellite: the canonical descriptors that dedup a bank's simulators
   must never collide across distinct configurations -- checked over a
   dense grid of every predictor family and I-cache geometry. *)
let test_bank_descriptor_injective () =
  let btbs =
    List.concat_map
      (fun entries ->
        List.concat_map
          (fun associativity ->
            List.map
              (fun two_bit_counters ->
                Predictor.Btb { Btb.entries; associativity; two_bit_counters })
              [ false; true ])
          [ 1; 2; 4; 8 ])
      [ 0; 64; 128; 256; 512; 1024 ]
  in
  let two_levels =
    List.concat_map
      (fun entries ->
        List.map
          (fun history -> Predictor.Two_level { Two_level.entries; history })
          [ 1; 2; 4; 8 ])
      [ 64; 256; 1024 ]
  in
  let case_blocks =
    List.map (fun n -> Predictor.Case_block n) [ 16; 64; 256; 1024 ]
  in
  let kinds =
    (Predictor.Perfect :: Predictor.Never :: btbs) @ two_levels @ case_blocks
  in
  let distinct l = List.length (List.sort_uniq compare l) in
  check_int "predictor descriptors pairwise distinct" (List.length kinds)
    (distinct (List.map Predictor.descriptor kinds));
  let icaches =
    Icache.infinite
    :: List.concat_map
         (fun size_bytes ->
           List.concat_map
             (fun line_bytes ->
               List.map
                 (fun associativity ->
                   Icache.make_config ~size_bytes ~line_bytes ~associativity)
                 [ 1; 2; 4 ])
             [ 16; 32; 64 ])
         [ 4096; 8192; 16384; 32768 ]
  in
  check_int "icache descriptors pairwise distinct" (List.length icaches)
    (distinct (List.map Icache.descriptor icaches));
  (* The bank constructors dedup on exactly these keys: feeding the grid
     twice must build each simulator once, in first-occurrence order. *)
  check_int "predictor bank dedups on the descriptor" (List.length kinds)
    (List.length (Predictor.create_bank (kinds @ kinds)));
  check_int "icache bank dedups on the descriptor" (List.length icaches)
    (List.length (Icache.create_bank (icaches @ icaches)));
  (* Invalid geometry: dropped by the bank, still raises for the per-cell
     path that actually uses it. *)
  let bad =
    Predictor.Btb { Btb.entries = 64; associativity = 0; two_bit_counters = false }
  in
  check_int "invalid config dropped from the bank" 1
    (List.length (Predictor.create_bank [ bad; Predictor.Perfect ]))

(* ------------------------------------------------------------------ *)
(* Supervision: chaos injection, watchdog/retry, the store and resume.

   Every report-side [Faults] injection point is exercised here:
   cell-raise (retry and exhaustion), record-fail (group degrades to
   direct), slow-cell (the watchdog timeout), store-io (append degrades,
   run continues) and worker-death (sequential kill-and-resume, pool
   respawn). *)

module Faults = Vmbp_report.Faults

let reset_supervision () =
  Faults.reset ();
  PR.reset_shutdown ();
  PR.trace_cap_mb := 256;
  PR.clear_trace_cache ();
  PR.clear_result_cache ();
  ignore (PR.drain_log ())

(* Chaos state, the trace cap and the caches are process-global; leave none
   of them behind for later tests. *)
let supervised f () =
  reset_supervision ();
  Fun.protect f ~finally:reset_supervision

let configure_chaos spec =
  match Faults.configure spec with
  | Ok () -> ()
  | Error msg -> Alcotest.fail (Printf.sprintf "chaos spec %S: %s" spec msg)

let test_chaos_spec_parsing () =
  let bad s =
    match Faults.configure s with
    | Error _ -> ()
    | Ok () -> Alcotest.fail (Printf.sprintf "spec %S must be rejected" s)
  in
  configure_chaos "cell-raise=2";
  configure_chaos "worker-death=2+1,seed=42";
  configure_chaos "store-io=0.25,seed=7";
  configure_chaos "slow-cell=1@0.2";
  check_bool "armed after configure" true (Faults.armed ());
  bad "bogus-point=1";
  bad "cell-raise";
  bad "cell-raise=0";
  bad "cell-raise=1.5";
  bad "worker-death=-1+2";
  bad "slow-cell=1@nope";
  bad "seed=abc";
  (* Append failures are the store's io point; there is no journal-io. *)
  bad "journal-io=1";
  check_bool "a bad spec disarms everything" false (Faults.armed ());
  configure_chaos "";
  check_bool "empty spec is a no-op" false (Faults.armed ())

let one_cell ?predictor ?(cpu = Cpu_model.ideal) name =
  PR.cell ~tag:"test" ?predictor ~cpu ~technique:Technique.plain
    (toy_workload name)

let test_cell_raise_retry () =
  (* One injected transient failure: the retry makes the cell succeed on
     attempt 2, and the outcome matches an injection-free run.  Retries
     belong to live attempts, so every cell runs live. *)
  PR.trace_cap_mb := 0;
  configure_chaos "cell-raise=1";
  (match PR.run_cells [ one_cell "chaos-retry" ] with
  | [ t ] ->
      check_bool "retried cell succeeds" true (Result.is_ok t.PR.outcome);
      check_int "two attempts" 2 t.PR.attempts;
      check_bool "not a timeout" false t.PR.timed_out
  | _ -> Alcotest.fail "one cell in, one result out");
  check_int "cell-raise fired once" 1 (Faults.fired Faults.Cell_raise);
  (* More injected failures than retries: the cell fails with the injected
     error after exhausting its attempts, and siblings are untouched. *)
  Faults.reset ();
  PR.clear_trace_cache ();
  configure_chaos "cell-raise=5";
  match
    PR.run_cells
      ~ctx:{ (PR.default_ctx ()) with PR.cell_retries = 2 }
      [ one_cell "chaos-exhaust"; one_cell "chaos-ok" ]
  with
  | [ t1; t2 ] ->
      (match t1.PR.outcome with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "5 injected failures must exhaust 2 retries");
      check_int "attempts = 1 + retries" 3 t1.PR.attempts;
      check_bool "sibling cell unharmed" true (Result.is_ok t2.PR.outcome)
  | _ -> Alcotest.fail "two cells in, two results out"

let test_record_fail_degrades () =
  (* A failure in the group walk must degrade the group to per-cell live
     runs with identical numbers -- never abort the pool. *)
  let cells () =
    let w = loaded_once_toy "chaos-record" in
    List.map
      (fun cpu -> PR.cell ~tag:"test" ~cpu ~technique:Technique.plain w)
      [ Cpu_model.ideal; Cpu_model.pentium4_northwood ]
  in
  let reference = signature (PR.run_cells (cells ())) in
  PR.clear_trace_cache ();
  configure_chaos "record-fail=1";
  let chaos = PR.run_cells (cells ()) in
  check_int "record-fail fired" 1 (Faults.fired Faults.Record_fail);
  List.iter
    (fun (t : PR.timed) ->
      check_bool "degraded cells run direct" true (t.PR.mode = PR.Direct))
    chaos;
  Alcotest.(check (list (pair string string)))
    "degraded group agrees with the walked run" reference (signature chaos)

let test_recording_deadline_degrades () =
  (* A group whose recording is still running at its deadline degrades to
     live attempts and keeps no path; the next group of the workload
     records again.  Only the first session -- the first recording's --
     stalls, and the program runs long enough to poll after the stall. *)
  let w = stalling_toy ~counters:5_000 ~stalled:1 "chaos-record-deadline" in
  let group technique =
    List.map
      (fun cpu -> PR.cell ~tag:"test" ~cpu ~technique w)
      [ Cpu_model.ideal; Cpu_model.pentium4_northwood ]
  in
  let modes = List.map (fun (t : PR.timed) -> PR.mode_name t.PR.mode) in
  let ctx = { (PR.default_ctx ()) with PR.cell_timeout = 0.1 } in
  let records = counter "vm_path.records" in
  let cut = PR.run_cells ~ctx (group Technique.plain) in
  Alcotest.(check (list string))
    "the cut group runs live" [ "direct"; "direct" ] (modes cut);
  List.iter
    (fun (t : PR.timed) ->
      check_bool "live attempts succeed" true (Result.is_ok t.PR.outcome);
      check_bool "live attempts meet their deadline" false t.PR.timed_out)
    cut;
  check_int "the cut recording keeps no path" 0
    (counter "vm_path.records" - records);
  let next = PR.run_cells ~ctx (group Technique.switch) in
  Alcotest.(check (list string))
    "the next group records and walks" [ "record"; "replay" ] (modes next);
  check_int "the next group keeps the path" 1
    (counter "vm_path.records" - records)

let test_slow_cell_timeout () =
  (* The slow-cell stall trips the cooperative deadline of a live attempt
     both with every cell live and when a failed group walk degrades to
     live attempts; the sibling cell is unaffected.  [supervised] restores
     the trace cap. *)
  let ctx = { (PR.default_ctx ()) with PR.cell_timeout = 0.05 } in
  List.iter
    (fun (cap, path, spec) ->
      PR.trace_cap_mb := cap;
      PR.clear_trace_cache ();
      Faults.reset ();
      configure_chaos spec;
      match
        PR.run_cells ~ctx
          [ one_cell ("chaos-slow-" ^ path); one_cell ("chaos-fast-" ^ path) ]
      with
      | [ slow; fast ] ->
          (match slow.PR.outcome with
          | Error msg ->
              check_bool (path ^ ": timeout message") true
                (String.length msg > 0)
          | Ok _ -> Alcotest.fail (path ^ ": stalled cell must time out"));
          check_bool (path ^ ": timed_out flag") true slow.PR.timed_out;
          check_int (path ^ ": timeouts are not retried") 1 slow.PR.attempts;
          check_bool (path ^ ": sibling finishes") true
            (Result.is_ok fast.PR.outcome)
      | _ -> Alcotest.fail "two cells in, two results out")
    [
      (0, "direct", "slow-cell=1@0.3");
      (256, "replay", "record-fail=1,slow-cell=1@0.3");
    ]

let test_bad_predictor_is_failed_cell () =
  (* An invalid BTB override surfaces as that cell's [Error], not a pool
     abort; valid siblings still complete. *)
  let bad =
    Predictor.Btb
      { Btb.entries = 64; associativity = 0; two_bit_counters = false }
  in
  match
    PR.run_cells
      ~ctx:{ (PR.default_ctx ()) with PR.cell_retries = 0 }
      [
        one_cell "pred-good-a";
        one_cell ~predictor:bad "pred-bad";
        one_cell ~predictor:Predictor.Perfect "pred-good-b";
      ]
  with
  | [ a; b; c ] ->
      check_bool "plain sibling ok" true (Result.is_ok a.PR.outcome);
      (match b.PR.outcome with
      | Error msg ->
          check_bool "error mentions the config" true
            (String.length msg > 0)
      | Ok _ -> Alcotest.fail "zero associativity must fail the cell");
      check_bool "override sibling ok" true (Result.is_ok c.PR.outcome)
  | _ -> Alcotest.fail "three cells in, three results out"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vmbp-store-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let test_store_roundtrip_serve () =
  (* The content-addressed store as a resume layer: a second run over the
     same cells is served entirely from the store, byte-identically,
     including cells appended by the same process. *)
  with_temp_dir (fun dir ->
      let store = Vmbp_store.Store.open_ dir in
      let first = PR.run_cells ~store (toy_cells ()) in
      check_int "every success stored" 12
        (Vmbp_store.Store.stats store).Vmbp_store.Store.appended;
      (* Same process, same store: the live table serves instantly. *)
      PR.clear_trace_cache ();
      PR.clear_result_cache ();
      let second = PR.run_cells ~store (toy_cells ()) in
      List.iter
        (fun (t : PR.timed) ->
          check_bool "served from store" true t.PR.from_journal)
        second;
      Alcotest.(check (list (pair string string)))
        "store round-trip is identical" (signature first) (signature second);
      (* Fresh process simulation: close and reopen the same directory. *)
      Vmbp_store.Store.close store;
      let store = Vmbp_store.Store.open_ dir in
      PR.clear_trace_cache ();
      PR.clear_result_cache ();
      let third = PR.run_cells ~store (toy_cells ()) in
      Alcotest.(check (list (pair string string)))
        "reloaded store is identical" (signature first) (signature third);
      (* Full-fidelity check on one reloaded cell, not just the
         signature: cycles and seconds are recomputed from the stored
         counters. *)
      (match (first, third) with
      | a :: _, b :: _ -> (
          match (a.PR.outcome, b.PR.outcome) with
          | Ok ra, Ok rb ->
              check_result_equal "store round-trip"
                ra.Vmbp_report.Runner.result rb.Vmbp_report.Runner.result;
              Alcotest.(check string)
                "output round-trip" ra.Vmbp_report.Runner.output
                rb.Vmbp_report.Runner.output
          | _ -> Alcotest.fail "toy cells must succeed")
      | _ -> Alcotest.fail "no results");
      let s = Vmbp_store.Store.stats store in
      check_int "all 12 reloaded" 12 s.Vmbp_store.Store.loaded;
      check_int "nothing recomputed" 0 s.Vmbp_store.Store.appended;
      (* The vmbp-cells/8 summary surfaces the store counters. *)
      ignore (PR.drain_log ());
      let json = PR.json_summary ~store third in
      Vmbp_store.Store.close store;
      let contains needle =
        let nl = String.length needle and hl = String.length json in
        let found = ref false in
        for i = 0 to hl - nl do
          if String.sub json i nl = needle then found := true
        done;
        !found
      in
      check_bool "summary has store_hits" true (contains "\"store_hits\":");
      check_bool "summary has store_misses" true
        (contains "\"store_misses\":");
      check_bool "summary has coalesced" true (contains "\"coalesced\":");
      check_bool "summary has shed" true (contains "\"shed\":");
      check_bool "summary has degraded_seconds" true
        (contains "\"degraded_seconds\":");
      check_bool "summary has store stats block" true
        (contains "\"store\":{\"entries\":12,\"loaded\":12,");
      check_bool "summary has no journal block" false
        (contains "\"journal\":{"))

let test_store_io_fault_degrades () =
  (* store-io chaos: the append is dropped and counted; the run itself is
     unaffected and the cell recomputes on the next cold open. *)
  with_temp_dir (fun dir ->
      let store = Vmbp_store.Store.open_ dir in
      configure_chaos "store-io=1";
      let results = PR.run_cells ~store (toy_cells ()) in
      List.iter
        (fun (t : PR.timed) ->
          check_bool "cells unaffected by store loss" true
            (Result.is_ok t.PR.outcome))
        results;
      check_int "store-io fired" 1 (Faults.fired Faults.Store_io);
      let s = Vmbp_store.Store.stats store in
      Vmbp_store.Store.close store;
      check_int "one append dropped" 1 s.Vmbp_store.Store.write_errors;
      check_int "the rest landed" 11 s.Vmbp_store.Store.appended)

let test_sequential_kill_and_resume () =
  (* The headline crash-safety property: kill the (sequential) run after two
     groups via the worker-death point -- the stand-in for a killed process
     -- then reopen the same store and get a byte-identical report. *)
  with_temp_dir (fun dir ->
      let reference = signature (PR.run_cells (toy_cells ())) in
      PR.clear_result_cache ();
      configure_chaos "worker-death=2+1";
      let store = Vmbp_store.Store.open_ dir in
      (match PR.run_cells ~store (toy_cells ()) with
      | exception Faults.Worker_killed -> ()
      | _ -> Alcotest.fail "sequential worker death must escape run_cells");
      Faults.reset ();
      Vmbp_store.Store.close store;
      PR.clear_result_cache ();
      let store = Vmbp_store.Store.open_ dir in
      let resumed = PR.run_cells ~store (toy_cells ()) in
      Vmbp_store.Store.close store;
      Alcotest.(check (list (pair string string)))
        "resumed report is byte-identical" reference (signature resumed);
      let from_store =
        List.length (List.filter (fun t -> t.PR.from_journal) resumed)
      in
      check_int "exactly the pre-kill cells come from the store" 2
        from_store;
      (* The JSON summary separates store-served cells from live work. *)
      ignore (PR.drain_log ());
      let json = PR.json_summary resumed in
      let contains needle =
        let nl = String.length needle and hl = String.length json in
        let found = ref false in
        for i = 0 to hl - nl do
          if String.sub json i nl = needle then found := true
        done;
        !found
      in
      check_bool "summary counts store-served cells" true
        (contains "\"from_journal\":2"))

let test_pool_respawn () =
  (* In a pool, a worker death is contained: the group is re-queued, fresh
     workers are spawned, and every cell still completes. *)
  let before = PR.worker_respawns () in
  configure_chaos "worker-death=2";
  let results = PR.run_cells ~ctx:(with_jobs 2) (toy_cells ()) in
  check_int "all cells complete despite two dead workers" 12
    (List.length results);
  List.iter
    (fun (t : PR.timed) ->
      check_bool "cell completed" true (Result.is_ok t.PR.outcome);
      check_bool "no shutdown holes" true (t.PR.attempts > 0))
    results;
  check_int "both deaths fired" 2 (Faults.fired Faults.Worker_death);
  check_bool "respawns recorded" true (PR.worker_respawns () > before)

let test_shutdown_skips_pending () =
  (* A shutdown requested before the run starts (the degenerate first-Ctrl-C
     case) reports every cell as interrupted, with nothing computed. *)
  PR.request_shutdown ();
  let results = PR.run_cells (toy_cells ()) in
  List.iter
    (fun (t : PR.timed) ->
      (match t.PR.outcome with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "no cell may run after shutdown");
      check_int "nothing was attempted" 0 t.PR.attempts)
    results;
  PR.reset_shutdown ();
  ignore (PR.drain_log ());
  let json = PR.json_summary results in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let found = ref false in
    for i = 0 to hl - nl do
      if String.sub json i nl = needle then found := true
    done;
    !found
  in
  check_bool "summary counts interrupted cells" true
    (contains "\"interrupted\":12")

(* ------------------------------------------------------------------ *)
(* Differential self-check: lockstep oracle runs, mutation testing,
   sampled audits, and the key/fingerprint identities the store and the
   audit sampler rely on. *)

module Audit = Vmbp_report.Audit

(* Each case gets a fresh temporary directory for its repro artifacts,
   removed with whatever it holds afterwards. *)
let audited_test f () =
  with_temp_dir (fun repro_dir ->
      Unix.mkdir repro_dir 0o755;
      supervised (fun () -> f repro_dir) ())

(* A run context whose divergences go to a fresh log in [repro_dir]. *)
let audit_ctx ?(self_check = false) ?(audit_sample = 0.02) repro_dir =
  {
    (PR.default_ctx ()) with
    PR.self_check;
    audit_sample;
    audit = Audit.create_log ~repro_dir;
  }

let audited_count results =
  List.length (List.filter (fun (t : PR.timed) -> t.PR.audited) results)

let test_self_check_grid repro_dir =
  (* Every toy cell runs in lockstep with the reference models: zero
     divergences, every cell audited, and the numbers identical to an
     unchecked run. *)
  let plain = signature (PR.run_cells (toy_cells ())) in
  let ctx = audit_ctx ~self_check:true repro_dir in
  let results = PR.run_cells ~ctx (toy_cells ()) in
  Alcotest.(check (list (pair string string)))
    "self-check preserves every number" plain (signature results);
  check_int "all cells audited" 12 (audited_count results);
  check_int "no divergences" 0 (Audit.divergence_count ctx.PR.audit);
  ignore (PR.drain_log ())

(* A deliberately broken fast simulator: every 100th prediction is
   flipped.  Fresh instances restart the fault counter, so the bug is
   deterministic under re-recording and shrinking. *)
let buggy_maker ~predictor ~icache () =
  let s = Audit.fast_sim ~predictor ~icache in
  let n = ref 0 in
  {
    s with
    Audit.sim_predict =
      (fun ~branch ~target ~opcode ->
        incr n;
        let p = s.Audit.sim_predict ~branch ~target ~opcode in
        if !n mod 100 = 0 then not p else p);
  }

let test_self_check_catches_mutation repro_dir =
  (* A repro directory that does not exist yet: the artifact creates it,
     parents included. *)
  let repro_dir = Filename.concat (Filename.concat repro_dir "new") "repros" in
  let audit = Audit.create_log ~repro_dir in
  let cpu = Cpu_model.pentium4_northwood in
  let technique = Technique.plain in
  let w = toy_workload "mutation" in
  let config = Vmbp_core.Config.make ~cpu technique in
  let predictor = Vmbp_core.Config.predictor_kind config in
  let icache = cpu.Cpu_model.icache in
  let fast_maker () = buggy_maker ~predictor ~icache () in
  (match
     Vmbp_report.Runner.run_checked ~fast_maker ~audit ~cell:"mutation-test"
       ~cpu ~technique w
   with
  | Ok _ -> Alcotest.fail "the seeded simulator bug must be caught"
  | Error msg ->
      let prefix = "self-check divergence" in
      check_bool "error names the divergence" true
        (String.length msg >= String.length prefix
        && String.sub msg 0 (String.length prefix) = prefix));
  match Audit.divergences audit with
  | [ d ] -> (
      check_bool "divergent event captured" true (d.Audit.d_event <> None);
      match d.Audit.d_artifact with
      | None -> Alcotest.fail "a repro artifact must be written"
      | Some path -> (
          Alcotest.(check string)
            "the artifact lands in the log's directory" repro_dir
            (Filename.dirname path);
          match Audit.load_repro path with
          | Error msg -> Alcotest.fail ("artifact must load back: " ^ msg)
          | Ok r -> (
              check_int "artifact is the minimal prefix" (r.Audit.r_index + 1)
                (Array.length r.Audit.r_events);
              (* Replaying against the broken sim reproduces the recorded
                 divergence at the same event... *)
              (match
                 Audit.replay_repro ~fast:(fast_maker ()) r
               with
              | Some (idx, _, _, _) ->
                  check_int "same divergent event on replay" r.Audit.r_index idx
              | None -> Alcotest.fail "buggy sim must still diverge on replay");
              (* ...and the stock simulators agree on the same stream (the
                 bug lives in the mutant, not in the production code). *)
              match Audit.replay_repro r with
              | None -> ()
              | Some (idx, detail, _, _) ->
                  Alcotest.fail
                    (Printf.sprintf
                       "stock simulators diverged at %d (%s) on a \
                        mutant-only repro"
                       idx detail))))
  | ds -> check_int "exactly one divergence recorded" 1 (List.length ds)

let test_audit_sample_crosschecks_replays repro_dir =
  (* Per workload: a three-CPU group (one walk, which records the path,
     serves it as Record, Replay and Replay) and a one-cell group (a
     Direct walk).  With --audit-sample 1.0 every cell not produced by a
     live run -- here every cell -- is re-run live and compared. *)
  let ctx = audit_ctx ~audit_sample:1.0 repro_dir in
  let cells =
    List.concat_map
      (fun w ->
        List.map
          (fun cpu -> PR.cell ~tag:"audit" ~cpu ~technique:Technique.plain w)
          [ Cpu_model.ideal; Cpu_model.pentium4_northwood; Cpu_model.celeron_800 ]
        @ [
            PR.cell ~tag:"audit" ~cpu:Cpu_model.ideal
              ~technique:Technique.dynamic_repl w;
          ])
      [ loaded_once_toy "audit-a"; loaded_once_toy "audit-b" ]
  in
  let results = PR.run_cells ~ctx cells in
  Alcotest.(check (list string))
    "modes"
    (List.concat
       (List.init 2 (fun _ -> [ "record"; "replay"; "replay"; "direct" ])))
    (List.map (fun (t : PR.timed) -> PR.mode_name t.PR.mode) results);
  List.iteri
    (fun k (t : PR.timed) ->
      check_bool "cell survives its audit" true (Result.is_ok t.PR.outcome);
      check_bool (Printf.sprintf "cell %d audited" k) true t.PR.audited)
    results;
  check_int "no divergences" 0 (Audit.divergence_count ctx.PR.audit);
  check_int "every cell audited" 8 (audited_count results);
  (* Rate 0 audits nothing. *)
  PR.clear_trace_cache ();
  let results =
    PR.run_cells ~ctx:(audit_ctx ~audit_sample:0.0 repro_dir) cells
  in
  check_int "nothing audited at rate 0" 0 (audited_count results);
  ignore (PR.drain_log ())

(* VM path walks: the first group walk of a loaded workload records its
   control path with one functional run, and every group of it, under
   any technique, walks the path -- with numbers identical to all-live
   runs.  The oracles stay live: no path is recorded or walked under
   --self-check or --trace-cap-mb 0, and the audit cross-check's fresh
   run executes the semantics even when a path is kept. *)
let test_vm_path_replay repro_dir =
  (* Loaded once, like a registry workload: the path cache keys on the
     loaded workload's physical identity. *)
  let loaded =
    lazy
      {
        Vmbp_workloads.program =
          Vmbp_toyvm.Toy_vm.random_program ~seed:41 ~size:40;
        fresh_session =
          (fun () ->
            let state =
              Vmbp_toyvm.Toy_vm.create_state ~counters:(Array.make 16 50) ()
            in
            {
              Vmbp_workloads.exec = Vmbp_toyvm.Toy_vm.exec state;
              output =
                (fun () -> string_of_int (Vmbp_toyvm.Toy_vm.checksum state));
            });
      }
  in
  let w =
    {
      Vmbp_workloads.vm = Vmbp_workloads.Forth;
      name = "path-toy";
      description = "synthetic toy workload, loaded once";
      load = (fun ~scale:_ -> Lazy.force loaded);
    }
  in
  let run ?(ctx = PR.default_ctx ()) cells =
    Vmbp_obs.Registry.reset ();
    PR.clear_trace_cache ();
    PR.clear_result_cache ();
    let results = PR.run_cells ~ctx cells in
    ignore (PR.drain_log ());
    let outputs =
      List.map
        (fun (t : PR.timed) ->
          match t.PR.outcome with
          | Ok r -> r.Vmbp_report.Runner.output
          | Error e -> e)
        results
    in
    ( (signature results, outputs),
      (counter "vm_path.records", counter "vm_path.walks"),
      audited_count results )
  in
  let cell ?(cpu = Cpu_model.pentium4_northwood) technique =
    PR.cell ~tag:"vm-path" ~cpu ~technique w
  in
  let techniques = [ cell Technique.plain; cell Technique.dynamic_repl ] in
  let same =
    Alcotest.(check (pair (list (pair string string)) (list string)))
  in
  let counts = Alcotest.(check (pair int int)) in
  Fun.protect
    ~finally:(fun () -> PR.trace_cap_mb := 256)
    (fun () ->
      PR.trace_cap_mb := 0;
      let live, n, _ = run techniques in
      counts "--trace-cap-mb 0 records and walks nothing" (0, 0) n;
      PR.trace_cap_mb := 256;
      let walked, n, _ = run techniques in
      counts "two techniques: one path recorded, walked twice" (1, 2) n;
      same "walked numbers and output equal live" live walked;
      check_bool "path bytes gauged" true
        (Vmbp_obs.Registry.gauge_value (Vmbp_obs.Registry.gauge "vm_path.bytes")
        > 0.);
      let checked, n, _ =
        run ~ctx:(audit_ctx ~self_check:true repro_dir) techniques
      in
      counts "--self-check records and walks nothing" (0, 0) n;
      same "self-checked numbers equal live" live checked;
      (* One group of two CPUs: one walk, which records the path, serves
         both cells, each audited by a fresh run that must not use the
         path. *)
      let ctx = audit_ctx ~audit_sample:1.0 repro_dir in
      let _, n, audited =
        run ~ctx
          [
            cell Technique.plain;
            cell ~cpu:Cpu_model.celeron_800 Technique.plain;
          ]
      in
      counts "one walk; the audit's fresh run walks nothing" (1, 1) n;
      check_int "both walked cells were audited" 2 audited;
      check_int "no divergences" 0 (Audit.divergence_count ctx.PR.audit))

(* The one-batch entry renders every table exactly as each experiment's
   own [run] does, but walks each (workload, technique, scale) group once:
   the three sweeps share bench-gc's plain group, which their separate
   runs walk three times. *)
let test_run_batch_matches_runs () =
  let es =
    List.map
      (fun id -> Option.get (Vmbp_report.Experiments.find id))
      [ "btb-sweep"; "predictors"; "penalty-sweep" ]
  in
  let walks f =
    Vmbp_obs.Registry.reset ();
    PR.clear_result_cache ();
    let x = f () in
    ignore (PR.drain_log ());
    (x, counter "vm_path.walks")
  in
  let (tables, cells), batch_walks =
    walks (fun () -> Vmbp_report.Experiments.run_batch ~scale:1 es)
  in
  let runs, run_walks =
    walks (fun () ->
        List.map (fun e -> e.Vmbp_report.Experiments.run ~scale:1) es)
  in
  check_int "one batch of every cell" 49 (List.length cells);
  check_bool "tables in list order" true
    (List.for_all2 ( == ) (List.map fst tables) es);
  List.iter2
    (fun (e, table) run ->
      Alcotest.(check string) e.Vmbp_report.Experiments.id run table)
    tables runs;
  check_int "the batch walks each group once" 6 batch_walks;
  check_int "the separate runs walk shared groups again" 8 run_walks

let test_sampling_deterministic () =
  let keys = List.init 1000 (Printf.sprintf "cell-%d") in
  let decide rate = List.map (fun key -> Audit.sampled ~key ~rate) keys in
  Alcotest.(check (list bool))
    "same keys, same decisions" (decide 0.3) (decide 0.3);
  check_bool "rate 0 selects nothing" true
    (List.for_all not (decide 0.));
  check_bool "rate 1 selects everything" true (List.for_all Fun.id (decide 1.));
  let hits = List.length (List.filter Fun.id (decide 0.3)) in
  check_bool
    (Printf.sprintf "rate 0.3 selects a plausible fraction (%d/1000)" hits)
    true
    (hits > 200 && hits < 400)

(* Distinct technique parameters must never collide on the (descriptor,
   fingerprint) pair the store uses for identity. *)
let test_descriptor_fingerprint_injective () =
  let techniques =
    Technique.
      [
        switch;
        plain;
        static_repl ~n:100 ();
        static_repl ~n:200 ();
        static_super ~n:100 ();
        static_super ~n:200 ();
        static_both ~supers:10 ~replicas:20 ();
        static_both ~supers:20 ~replicas:10 ();
        Static (static_params ~replicas:100 ~parse:Optimal ());
        Static (static_params ~replicas:100 ~strategy:(Random 7) ());
        Static (static_params ~replicas:100 ~strategy:(Random 8) ());
        Static (static_params ~replicas:100 ~prefer_short:true ());
        dynamic_repl;
        dynamic_super;
        dynamic_both;
        across_bb;
        with_static_super ~n:100 ();
        with_static_super ~n:200 ();
        with_static_across_bb ~n:100 ();
        subroutine;
      ]
  in
  let descriptors = List.map Technique.descriptor techniques in
  let sorted = List.sort_uniq compare descriptors in
  check_int "descriptors pairwise distinct" (List.length techniques)
    (List.length sorted);
  (* The full cell identity -- key plus fingerprint -- must separate
     every cell of a parameter sweep. *)
  let w = toy_workload "ident" in
  let idents =
    List.concat_map
      (fun technique ->
        List.concat_map
          (fun cpu ->
            List.concat_map
              (fun scale ->
                List.map
                  (fun predictor ->
                    let c = PR.cell ~tag:"ident" ~scale ?predictor ~cpu ~technique w in
                    (PR.cell_key c, PR.config_fingerprint c))
                  [ None; Some Predictor.Perfect ])
              [ 1; 2 ])
          [ Cpu_model.ideal; Cpu_model.pentium4_northwood ])
      techniques
  in
  check_int "cell identities pairwise distinct" (List.length idents)
    (List.length (List.sort_uniq compare idents))

(* A store record whose fingerprint matches but whose key (descriptor)
   differs must not be served on resume. *)
let test_store_refuses_descriptor_mismatch () =
  let w = toy_workload "store-ident" in
  let mk technique = PR.cell ~tag:"ident" ~cpu:Cpu_model.ideal ~technique w in
  let c1 = mk (Technique.static_repl ~n:100 ()) in
  let c2 = mk (Technique.static_repl ~n:200 ()) in
  check_bool "different technique params, different keys" true
    (PR.store_key c1 <> PR.store_key c2);
  (* Defense in depth: the fingerprint re-encodes the technique, so even
     the fingerprints of a parameter sweep never collide. *)
  check_bool "different technique params, different fingerprints" true
    (PR.config_fingerprint c1 <> PR.config_fingerprint c2);
  (* A (possibly tampered) record sharing c2's fingerprint but stored
     under c1's key must not be served for c2, and vice versa: lookup
     demands that both halves of the identity match. *)
  let shared_fp = PR.config_fingerprint c2 in
  with_temp_dir (fun dir ->
      let s = Vmbp_store.Store.open_ dir in
      Vmbp_store.Store.append s
        {
          Vmbp_store.Cellrec.key = PR.store_key c1;
          fingerprint = shared_fp;
          outcome = Error "seeded entry";
          attempts = 1;
          timed_out = false;
        };
      Vmbp_store.Store.close s;
      let s = Vmbp_store.Store.open_ dir in
      Fun.protect
        ~finally:(fun () -> Vmbp_store.Store.close s)
        (fun () ->
          check_bool "own key and fingerprint served" true
            (Vmbp_store.Store.lookup s ~key:(PR.store_key c1)
               ~fingerprint:shared_fp
            <> None);
          check_bool "matching fingerprint, different descriptor refused"
            true
            (Vmbp_store.Store.lookup s ~key:(PR.store_key c2)
               ~fingerprint:shared_fp
            = None);
          check_bool "matching key, different fingerprint refused" true
            (Vmbp_store.Store.lookup s ~key:(PR.store_key c1)
               ~fingerprint:(PR.config_fingerprint c1)
            = None);
          (* The runner's own resume path refuses both cells too. *)
          check_bool "runner serves neither cell" true
            (PR.store_lookup s c1 = None && PR.store_lookup s c2 = None)))

let () =
  Alcotest.run "report"
    [
      ( "rendering",
        [ Alcotest.test_case "table layout" `Quick test_table_render ] );
      ( "traces",
        [
          Alcotest.test_case "switch all-miss" `Quick test_trace_switch_all_miss;
          Alcotest.test_case "threaded half-miss" `Quick
            test_trace_threaded_half_miss;
          Alcotest.test_case "replication no-miss" `Quick
            test_trace_replication_no_miss;
          Alcotest.test_case "jvm past quickening" `Quick
            test_trace_jvm_past_quickening;
        ] );
      ( "models",
        [
          Alcotest.test_case "comparator ordering" `Slow
            test_native_model_ordering;
        ] );
      ( "registry",
        [
          Alcotest.test_case "all paper items present" `Quick
            test_registry_complete;
          Alcotest.test_case "cheap experiments render" `Quick
            test_cheap_experiments_render;
          Alcotest.test_case "one batch renders like separate runs" `Quick
            test_run_batch_matches_runs;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "forth technique ordering" `Slow
            test_shape_forth_ordering;
          Alcotest.test_case "misprediction rates" `Slow
            test_shape_misprediction_rates;
          Alcotest.test_case "jvm dispatch ratio lower" `Slow
            test_shape_jvm_smaller_ratio;
          Alcotest.test_case "static mix improves" `Slow
            test_shape_static_mix_improves;
          Alcotest.test_case "subroutine threading" `Slow
            test_subroutine_threading_shape;
        ] );
      ( "par-runner",
        [
          Alcotest.test_case "deterministic across job counts" `Quick
            test_par_runner_deterministic;
          Alcotest.test_case "trapping cell fails alone" `Quick
            test_par_runner_fault_isolation;
          Alcotest.test_case "json summary" `Quick test_par_runner_json_summary;
          Alcotest.test_case "plans the registry without running it" `Quick
            test_plan_registry;
        ] );
      ( "explain",
        [
          Alcotest.test_case "attribution equals checked counters" `Quick
            test_explain_matches_checked_counters;
          Alcotest.test_case "observability never changes numbers" `Quick
            test_observability_invisible;
        ] );
      ( "record-replay",
        [
          Alcotest.test_case "gforth variants x cpus x predictor" `Slow
            test_replay_equivalence_gforth;
          Alcotest.test_case "jvm quickening" `Slow
            test_replay_equivalence_jvm_quickening;
          Alcotest.test_case "trap and fuel exhaustion" `Quick
            test_replay_trap_and_fuel;
          Alcotest.test_case "overflow and fallback" `Quick
            test_record_overflow_and_fallback;
          Alcotest.test_case "banked replay equals per-cell replay" `Quick
            test_banked_replay_matches_per_cell;
          Alcotest.test_case "group walk polls" `Quick test_group_walk_polls;
          Alcotest.test_case "two groups record a path once" `Quick
            test_record_once_across_jobs;
          Alcotest.test_case "bank descriptors injective" `Quick
            test_bank_descriptor_injective;
          Alcotest.test_case "bank polls once per 65536 tokens" `Quick
            test_bank_poll_count;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "chaos spec parsing" `Quick
            (supervised test_chaos_spec_parsing);
          Alcotest.test_case "cell-raise retries then exhausts" `Quick
            (supervised test_cell_raise_retry);
          Alcotest.test_case "record failure degrades to direct" `Quick
            (supervised test_record_fail_degrades);
          Alcotest.test_case "recording past its deadline degrades" `Quick
            (supervised test_recording_deadline_degrades);
          Alcotest.test_case "slow cell hits the watchdog" `Quick
            (supervised test_slow_cell_timeout);
          Alcotest.test_case "bad predictor fails one cell" `Quick
            (supervised test_bad_predictor_is_failed_cell);
          Alcotest.test_case "store round-trip serves" `Quick
            (supervised test_store_roundtrip_serve);
          Alcotest.test_case "store write fault degrades" `Quick
            (supervised test_store_io_fault_degrades);
          Alcotest.test_case "kill mid-run, resume byte-identical" `Quick
            (supervised test_sequential_kill_and_resume);
          Alcotest.test_case "pool respawns dead workers" `Quick
            (supervised test_pool_respawn);
          Alcotest.test_case "shutdown skips pending cells" `Quick
            (supervised test_shutdown_skips_pending);
        ] );
      ( "self-check",
        [
          Alcotest.test_case "toy grid clean under lockstep oracle" `Quick
            (audited_test test_self_check_grid);
          Alcotest.test_case "seeded simulator bug caught + repro" `Quick
            (audited_test test_self_check_catches_mutation);
          Alcotest.test_case "audit-sample cross-checks replays" `Quick
            (audited_test test_audit_sample_crosschecks_replays);
          Alcotest.test_case "vm path replay, oracles live" `Quick
            (audited_test test_vm_path_replay);
          Alcotest.test_case "sampling deterministic" `Quick
            test_sampling_deterministic;
          Alcotest.test_case "descriptor+fingerprint injective" `Quick
            test_descriptor_fingerprint_injective;
          Alcotest.test_case "store refuses descriptor mismatch" `Quick
            (supervised test_store_refuses_descriptor_mismatch);
        ] );
    ]
