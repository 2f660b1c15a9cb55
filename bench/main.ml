(* Benchmark harness.

   Two halves:

   1. The reproduction report: every table and figure of the paper's
      evaluation (plus the DESIGN.md ablations), regenerated by the
      simulator and printed with the same rows/series the paper reports.

   2. Bechamel micro-benchmarks: one [Test.make] per table/figure, each
      timing a representative kernel of that experiment (the simulator
      running the experiment's workload/technique pair), so wall-clock
      regressions in the reproduction pipeline itself are visible.

   Usage: main.exe [--scale N] [--jobs N] [--trace-cap-mb MB] [--json FILE]
                   [--journal FILE] [--resume] [--cell-timeout SEC]
                   [--cell-retries N] [--chaos SPEC] [--self-check]
                   [--audit-sample P] [--repro-dir DIR]
                   [--trace-out FILE] [--metrics FILE]
                   [--progress | --no-progress]
                   [--report-only | --bench-only] *)

open Bechamel
open Toolkit

let scale_override = ref None
let report = ref true
let bench = ref true
let json_file = ref None
let journal_file = ref None
let resume = ref false
let trace_out = ref None
let metrics_file = ref None
let progress_override = ref None

(* Every operand is validated here: a malformed value yields a one-line
   usage error naming the flag, never a Failure backtrace. *)
let usage_error flag what value =
  Printf.eprintf "bench: option '%s': expected %s, got '%s'\n" flag what
    value;
  exit 2

let as_int flag value =
  match int_of_string_opt value with
  | Some n -> n
  | None -> usage_error flag "an integer" value

let as_float flag value =
  match float_of_string_opt value with
  | Some f -> f
  | None -> usage_error flag "a number" value

let as_fraction flag value =
  let f = as_float flag value in
  if f < 0. || f > 1. then
    usage_error flag "a probability between 0 and 1" value
  else f

let () =
  let rec parse = function
    | [] -> ()
    | "--scale" :: n :: rest ->
        scale_override := Some (as_int "--scale" n);
        parse rest
    | "--jobs" :: n :: rest ->
        Vmbp_report.Par_runner.default_jobs := max 1 (as_int "--jobs" n);
        parse rest
    | "--trace-cap-mb" :: n :: rest ->
        Vmbp_report.Par_runner.trace_cap_mb := as_int "--trace-cap-mb" n;
        parse rest
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse rest
    | "--journal" :: file :: rest ->
        journal_file := Some file;
        parse rest
    | "--resume" :: rest ->
        resume := true;
        parse rest
    | "--cell-timeout" :: s :: rest ->
        Vmbp_report.Par_runner.cell_timeout := as_float "--cell-timeout" s;
        parse rest
    | "--cell-retries" :: n :: rest ->
        Vmbp_report.Par_runner.cell_retries :=
          max 0 (as_int "--cell-retries" n);
        parse rest
    | "--chaos" :: spec :: rest ->
        (match Vmbp_report.Faults.configure spec with
        | Ok () -> ()
        | Error msg ->
            Printf.eprintf "bench: option '--chaos': %s\n" msg;
            exit 2);
        parse rest
    | "--self-check" :: rest ->
        Vmbp_report.Par_runner.self_check := true;
        parse rest
    | "--audit-sample" :: p :: rest ->
        Vmbp_report.Par_runner.audit_sample :=
          as_fraction "--audit-sample" p;
        parse rest
    | "--repro-dir" :: dir :: rest ->
        Vmbp_report.Audit.repro_dir := dir;
        parse rest
    | "--trace-out" :: file :: rest ->
        trace_out := Some file;
        parse rest
    | "--metrics" :: file :: rest ->
        metrics_file := Some file;
        parse rest
    | "--progress" :: rest ->
        progress_override := Some true;
        parse rest
    | "--no-progress" :: rest ->
        progress_override := Some false;
        parse rest
    | "--report-only" :: rest ->
        bench := false;
        parse rest
    | "--bench-only" :: rest ->
        report := false;
        parse rest
    | [ flag ]
      when List.mem flag
             [
               "--scale"; "--jobs"; "--trace-cap-mb"; "--json"; "--journal";
               "--cell-timeout"; "--cell-retries"; "--chaos";
               "--audit-sample"; "--repro-dir"; "--trace-out"; "--metrics";
             ] ->
        Printf.eprintf "bench: option '%s' needs an argument\n" flag;
        exit 2
    | arg :: _ ->
        Printf.eprintf "unknown argument %s\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  Vmbp_report.Audit.reset_stats ();
  (Vmbp_report.Par_runner.progress :=
     match !progress_override with
     | Some b -> b
     | None -> Unix.isatty Unix.stderr);
  Vmbp_obs.Registry.reset ();
  if !trace_out <> None then Vmbp_obs.Span.enable ();
  (match (!journal_file, !resume) with
  | Some file, resume -> Vmbp_report.Par_runner.set_journal ~file ~resume
  | None, true ->
      Printf.eprintf "--resume requires --journal FILE\n";
      exit 2
  | None, false -> ());
  (* First Ctrl-C drains in-flight cells and emits a partial report (the
     journal is already fsync'd per cell); the second force-quits. *)
  let interrupted = ref false in
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle
       (fun _ ->
         if !interrupted then exit 130
         else begin
           interrupted := true;
           Vmbp_report.Par_runner.request_shutdown ();
           prerr_endline
             "\nbench: interrupted -- finishing in-flight cells (Ctrl-C \
              again to force quit)"
         end))

(* ------------------------------------------------------------------ *)
(* Part 1: the reproduction report *)

let run_report () =
  print_endline
    "==================================================================";
  print_endline
    " Reproduction report: Casey, Ertl, Gregg -- Optimizing Indirect";
  print_endline
    " Branch Prediction Accuracy in Virtual Machine Interpreters";
  print_endline
    "==================================================================\n";
  List.iter
    (fun (e : Vmbp_report.Experiments.t) ->
      let scale =
        match !scale_override with
        | Some s -> s
        | None -> e.Vmbp_report.Experiments.default_scale
      in
      Printf.printf "== %s ==\n" e.Vmbp_report.Experiments.title;
      Printf.printf "Paper: %s\n\n" e.Vmbp_report.Experiments.paper_claim;
      print_string (e.Vmbp_report.Experiments.run ~scale);
      print_newline ();
      flush stdout)
    Vmbp_report.Experiments.all

(* ------------------------------------------------------------------ *)
(* Part 2: bechamel kernels, one per table/figure *)

let simulate ~vm ~workload ~technique ~cpu () =
  match Vmbp_workloads.find ~vm workload with
  | None -> failwith ("unknown workload " ^ workload)
  | Some w ->
      let r = Vmbp_report.Runner.run ~cpu ~technique w in
      (* Return the cycle count so the computation cannot be elided. *)
      r.Vmbp_report.Runner.result.Vmbp_core.Engine.cycles

let toy_kernel ~technique () =
  let program = Vmbp_toyvm.Toy_vm.table1_loop () in
  let profile = Vmbp_vm.Profile.empty ~max_seq_len:4 in
  Vmbp_vm.Profile.add_program profile program;
  let config =
    Vmbp_core.Config.make ~cpu:Vmbp_machine.Cpu_model.ideal technique
  in
  let layout = Vmbp_core.Config.build_layout ~profile config ~program in
  let state =
    Vmbp_toyvm.Toy_vm.create_state ~counters:(Array.make 16 1000) ()
  in
  let r =
    Vmbp_core.Engine.run ~config ~layout ~exec:(Vmbp_toyvm.Toy_vm.exec state) ()
  in
  r.Vmbp_core.Engine.cycles

let celeron = Vmbp_machine.Cpu_model.celeron_800
let p4 = Vmbp_machine.Cpu_model.pentium4_northwood

let warmups : (unit -> unit) list ref = ref []

let bench_tests =
  let t name f =
    (* Run once up front so one-off costs (workload compilation, memoised
       profiles) do not pollute the first sample. *)
    warmups := (fun () -> ignore (f ())) :: !warmups;
    Test.make ~name (Staged.stage f)
  in
  let open Vmbp_core in
  [
    t "table1:threaded-trace" (toy_kernel ~technique:Technique.plain);
    t "table2:replication-trace"
      (toy_kernel ~technique:(Technique.static_repl ~n:8 ()));
    t "table3:bad-replication-trace" (toy_kernel ~technique:Technique.switch);
    t "table4:superinstruction-trace"
      (toy_kernel ~technique:(Technique.static_super ~n:4 ()));
    t "table5:jvm-base-interp"
      (simulate ~vm:Vmbp_workloads.Jvm ~workload:"db"
         ~technique:Technique.plain ~cpu:p4);
    t "fig7:gforth-celeron"
      (simulate ~vm:Vmbp_workloads.Forth ~workload:"bench-gc"
         ~technique:(Technique.static_both ()) ~cpu:celeron);
    t "fig8:gforth-p4"
      (simulate ~vm:Vmbp_workloads.Forth ~workload:"bench-gc"
         ~technique:(Technique.with_static_super ()) ~cpu:p4);
    t "fig9:jvm-p4"
      (simulate ~vm:Vmbp_workloads.Jvm ~workload:"compress"
         ~technique:(Technique.with_static_across_bb ()) ~cpu:p4);
    t "fig10:counters-bench-gc"
      (simulate ~vm:Vmbp_workloads.Forth ~workload:"bench-gc"
         ~technique:Technique.dynamic_repl ~cpu:p4);
    t "fig11:counters-brew"
      (simulate ~vm:Vmbp_workloads.Forth ~workload:"brew"
         ~technique:Technique.dynamic_super ~cpu:p4);
    t "fig12:counters-mpeg"
      (simulate ~vm:Vmbp_workloads.Jvm ~workload:"mpeg"
         ~technique:Technique.dynamic_both ~cpu:p4);
    t "fig13:counters-compress"
      (simulate ~vm:Vmbp_workloads.Jvm ~workload:"compress"
         ~technique:Technique.dynamic_repl ~cpu:p4);
    t "fig14:static-mix-forth"
      (simulate ~vm:Vmbp_workloads.Forth ~workload:"bench-gc"
         ~technique:
           (Technique.Static
              (Technique.static_params ~replicas:100 ~superinstrs:100 ()))
         ~cpu:celeron);
    t "fig15:static-mix-jvm"
      (simulate ~vm:Vmbp_workloads.Jvm ~workload:"mpeg"
         ~technique:(Technique.static_super ~n:200 ()) ~cpu:p4);
    t "fig16:static-mix-mispredicts"
      (simulate ~vm:Vmbp_workloads.Jvm ~workload:"mpeg"
         ~technique:(Technique.static_repl ~n:50 ()) ~cpu:p4);
    t "table8:code-growth"
      (simulate ~vm:Vmbp_workloads.Jvm ~workload:"jess"
         ~technique:Technique.across_bb ~cpu:p4);
    t "table9:forth-vs-native"
      (simulate ~vm:Vmbp_workloads.Forth ~workload:"tscp"
         ~technique:Technique.across_bb ~cpu:p4);
    t "table10:jvm-vs-jits"
      (simulate ~vm:Vmbp_workloads.Jvm ~workload:"jack"
         ~technique:(Technique.with_static_across_bb ()) ~cpu:p4);
    t "ablation:btb-sweep"
      (simulate ~vm:Vmbp_workloads.Forth ~workload:"bench-gc"
         ~technique:Technique.plain ~cpu:celeron);
    t "ablation:two-level-predictor"
      (simulate ~vm:Vmbp_workloads.Forth ~workload:"vmgen"
         ~technique:Technique.switch ~cpu:Vmbp_machine.Cpu_model.pentium_m);
  ]

let run_bench () =
  print_endline
    "==================================================================";
  print_endline " Bechamel kernels (simulator wall-clock per experiment)";
  print_endline
    "==================================================================";
  List.iter (fun warm -> warm ()) !warmups;
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:20 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let time_ns =
            match Analyze.OLS.estimates ols_result with
            | Some [ t ] -> t
            | _ -> nan
          in
          Printf.printf "%-34s %10.2f ms/run\n" name (time_ns /. 1e6))
        results;
      flush stdout)
    bench_tests

let () =
  if !report then run_report ();
  if !bench then run_bench ();
  (match !json_file with
  | None -> ()
  | Some file ->
      let cells = Vmbp_report.Par_runner.drain_log () in
      Vmbp_report.Par_runner.write_json_summary ~file cells;
      (* stderr, so the report on stdout is byte-identical across job
         counts and JSON destinations *)
      Printf.eprintf "wrote %d cell timings to %s\n" (List.length cells) file);
  (match !trace_out with
  | None -> ()
  | Some file ->
      Vmbp_obs.Span.write ~file;
      Printf.eprintf "wrote %d spans to %s\n" (Vmbp_obs.Span.count ()) file);
  (match !metrics_file with
  | None -> ()
  | Some file ->
      Vmbp_obs.Registry.write ~file;
      let c name =
        match Vmbp_obs.Registry.find_counter name with
        | Some v -> Int64.to_string v
        | None -> "0"
      in
      Printf.eprintf
        "[obs] vm path %s records / %s walks (%.0f bytes); group walks %s \
         / %s configs; journal %s served / %s appended; cells %s retries / \
         %s timeouts\n"
        (c "vm_path.records") (c "vm_path.walks")
        (Vmbp_obs.Registry.gauge_value
           (Vmbp_obs.Registry.gauge "vm_path.bytes"))
        (c "trace.bank_replays") (c "trace.banked_configs")
        (c "journal.served") (c "journal.appended") (c "cells.retries")
        (c "cells.timeouts");
      Printf.eprintf "wrote metrics to %s\n" file);
  match Vmbp_report.Audit.divergences () with
  | [] -> ()
  | ds ->
      flush stdout;
      List.iter
        (fun d -> Printf.eprintf "%s\n" (Vmbp_report.Audit.describe d))
        ds;
      Printf.eprintf "bench: self-check found %d divergence(s)\n"
        (List.length ds);
      exit 3
