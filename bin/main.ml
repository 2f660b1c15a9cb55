(* vmbp: command-line driver for the reproduction.

   Subcommands:
     list                      workloads, techniques, CPUs, experiments
     run <vm> <workload>       one benchmark under one technique
     trace <vm> <workload>     BTB dispatch trace (Tables I-IV style)
     experiment <id>           regenerate one paper table/figure
     report                    regenerate everything (EXPERIMENTS.md body)
     serve                     report service over a Unix-domain socket
     loadgen                   zipf load generator against a running service
     client                    one-shot service client (query/grid/stats/...) *)

open Cmdliner
open Vmbp_core

(* ---------------- list ---------------- *)

let list_cmd =
  let doc = "List workloads, techniques, CPU profiles and experiments." in
  let run () =
    print_endline "Workloads:";
    List.iter
      (fun (w : Vmbp_workloads.t) ->
        Printf.printf "  %-6s %-10s %s\n"
          (Vmbp_workloads.vm_name w.Vmbp_workloads.vm)
          w.Vmbp_workloads.name w.Vmbp_workloads.description)
      Vmbp_workloads.all;
    print_endline "\nTechniques:";
    List.iter
      (fun t -> Printf.printf "  %s\n" (Technique.name t))
      (Technique.switch :: Technique.paper_gforth_variants
      @ [ Technique.with_static_across_bb (); Technique.subroutine ]);
    print_endline "\nCPU profiles:";
    List.iter
      (fun (c : Vmbp_machine.Cpu_model.t) ->
        Printf.printf "  %-20s %d MHz, mispredict %d cycles\n"
          c.Vmbp_machine.Cpu_model.name c.Vmbp_machine.Cpu_model.mhz
          c.Vmbp_machine.Cpu_model.mispredict_penalty)
      Vmbp_machine.Cpu_model.all;
    print_endline "\nExperiments:";
    List.iter
      (fun (e : Vmbp_report.Experiments.t) ->
        Printf.printf "  %-16s %s\n" e.Vmbp_report.Experiments.id
          e.Vmbp_report.Experiments.title)
      Vmbp_report.Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ---------------- shared arguments ---------------- *)

let vm_arg =
  let parse s =
    match String.lowercase_ascii s with
    | "forth" -> Ok Vmbp_workloads.Forth
    | "jvm" -> Ok Vmbp_workloads.Jvm
    | _ -> Error (`Msg "vm must be 'forth' or 'jvm'")
  in
  Arg.conv (parse, fun ppf vm -> Fmt.string ppf (Vmbp_workloads.vm_name vm))

let technique_arg =
  let parse s =
    match Technique.of_name s with
    | Some t -> Ok t
    | None -> Error (`Msg ("unknown technique: " ^ s))
  in
  Arg.conv (parse, fun ppf t -> Fmt.string ppf (Technique.name t))

let cpu_arg =
  let parse s =
    match Vmbp_machine.Cpu_model.find s with
    | Some c -> Ok c
    | None -> Error (`Msg ("unknown cpu: " ^ s))
  in
  Arg.conv
    (parse, fun ppf c -> Fmt.string ppf c.Vmbp_machine.Cpu_model.name)

(* Scales, job and client counts, request counts and deadlines are
   checked where they are parsed: a value out of range is a one-line
   usage error naming the flag, never a silent clamp, an empty run or an
   exception from deep inside. *)
let checked_conv ~of_string ~pp ~ok ~expected =
  let parse s =
    match of_string s with
    | Some n when ok n -> Ok n
    | Some _ | None ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv (parse, pp)

let positive_conv =
  checked_conv ~of_string:int_of_string_opt ~pp:Fmt.int
    ~ok:(fun n -> n >= 1) ~expected:"a positive integer"

let non_negative_conv =
  checked_conv ~of_string:int_of_string_opt ~pp:Fmt.int
    ~ok:(fun n -> n >= 0) ~expected:"a non-negative integer"

let non_negative_float_conv =
  checked_conv ~of_string:float_of_string_opt ~pp:Fmt.float
    ~ok:(fun x -> x >= 0.) ~expected:"a non-negative number"

let positive_float_conv =
  checked_conv ~of_string:float_of_string_opt ~pp:Fmt.float
    ~ok:(fun x -> x > 0.) ~expected:"a positive number"

(* OCaml 5 runs at most 128 domains in one process ([Max_domains] in
   caml/domain.h), the main one included.  A job or client count that
   needs more would make [Domain.spawn] raise after the work has
   started. *)
let max_domains = 128

let domains_conv ~most =
  checked_conv ~of_string:int_of_string_opt ~pp:Fmt.int
    ~ok:(fun n -> n >= 1 && n <= most)
    ~expected:(Printf.sprintf "an integer from 1 to %d" most)

let scale_arg =
  Arg.(value & opt positive_conv 1 & info [ "scale" ] ~docv:"N")

let scale_opt_arg =
  Arg.(value & opt (some positive_conv) None & info [ "scale" ] ~docv:"N")

(* A path the system refuses -- an unusable --store, --socket or output
   path -- is a one-line error naming the path and the system error,
   never an uncaught exception. *)
let exit_on_system_error f =
  try f () with
  | Unix.Unix_error (e, fn, path) ->
      Printf.eprintf "vmbp: %s %s: %s\n" fn path (Unix.error_message e);
      exit 2
  | Sys_error msg ->
      Printf.eprintf "vmbp: %s\n" msg;
      exit 2

(* Every output option is declared through [out_file] or [out_dir], whose
   term checks the path while the command line is parsed, before any
   store, socket, request, cell or seed: a file is opened, or created and
   removed again; a directory is made with its missing parents, and what
   that made is removed again. *)
let out_file ?(docv = "FILE") ~doc name =
  let path = Arg.(value & opt (some string) None & info [ name ] ~docv ~doc) in
  let check file =
    exit_on_system_error (fun () ->
        let existed = Sys.file_exists file in
        Unix.close (Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644);
        if not existed then Sys.remove file);
    file
  in
  Term.(const (Option.map check) $ path)

let out_dir ~doc name =
  let path = Arg.(value & opt string "." & info [ name ] ~docv:"DIR" ~doc) in
  let check dir =
    let env = Vmbp_sim.Env.real in
    (exit_on_system_error @@ fun () ->
     let created = Vmbp_sim.Env.missing_dirs env dir in
     Fun.protect
       ~finally:(fun () ->
         List.iter
           (fun d -> try Unix.rmdir d with Unix.Unix_error _ -> ())
           (List.rev created))
       (fun () ->
         Vmbp_sim.Env.mkdir_p env dir;
         if not (Sys.is_directory dir) then
           raise (Sys_error (dir ^ ": Not a directory"))));
    dir
  in
  Term.(const check $ path)

(* ---------------- run / trace: one cell ---------------- *)

(* The cell [run], [trace] and [explain] select. *)
let cell_arg =
  let vm = Arg.(required & pos 0 (some vm_arg) None & info [] ~docv:"VM") in
  let workload =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let technique =
    Arg.(
      value
      & opt technique_arg Technique.plain
      & info [ "t"; "technique" ] ~docv:"TECHNIQUE")
  in
  Term.(
    const (fun vm name technique -> (vm, name, technique))
    $ vm $ workload $ technique)

let cell_cpu_arg =
  Arg.(
    value
    & opt cpu_arg Vmbp_machine.Cpu_model.pentium4_northwood
    & info [ "cpu" ] ~docv:"CPU")

(* Looked up in the command body, after every option has checked
   itself. *)
let find_workload vm name =
  match Vmbp_workloads.find ~vm name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %s/%s\n" (Vmbp_workloads.vm_name vm)
        name;
      exit 1

let run_cmd =
  let doc = "Run one workload under one interpreter technique." in
  let show_output =
    Arg.(value & flag & info [ "output" ] ~doc:"print the program's output")
  in
  let run (vm, name, technique) cpu scale show_output =
    let w = find_workload vm name in
    let r = Vmbp_report.Runner.run ~scale ~cpu ~technique w in
    let result = r.Vmbp_report.Runner.result in
    let m = result.Engine.metrics in
    Printf.printf "%s/%s under '%s' on %s (scale %d)\n"
      (Vmbp_workloads.vm_name vm) name (Technique.name technique)
      cpu.Vmbp_machine.Cpu_model.name scale;
    Printf.printf "  cycles      %.0f (%.1f ms modelled)\n" result.Engine.cycles
      (result.Engine.seconds *. 1e3);
    Printf.printf "  VM instrs   %d\n" m.Vmbp_machine.Metrics.vm_instrs;
    Printf.printf "  native      %d\n" m.Vmbp_machine.Metrics.native_instrs;
    Printf.printf "  dispatches  %d\n" m.Vmbp_machine.Metrics.dispatches;
    Printf.printf "  mispredicts %d (%.1f%% of indirect)\n"
      m.Vmbp_machine.Metrics.mispredicts
      (100. *. Vmbp_machine.Metrics.misprediction_rate m);
    Printf.printf "  icache miss %d\n" m.Vmbp_machine.Metrics.icache_misses;
    Printf.printf "  code bytes  %d\n" m.Vmbp_machine.Metrics.code_bytes;
    Printf.printf "  quickenings %d\n" m.Vmbp_machine.Metrics.quickenings;
    if show_output then
      Printf.printf "  output: %s\n" r.Vmbp_report.Runner.output
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ cell_arg $ cell_cpu_arg $ scale_arg $ show_output)

let trace_cmd =
  let doc =
    "Trace the first dispatches of a workload through an idealised BTB."
  in
  let skip =
    Arg.(value & opt non_negative_conv 0 & info [ "skip" ] ~docv:"N")
  in
  let take = Arg.(value & opt positive_conv 24 & info [ "take" ] ~docv:"N") in
  let run (vm, name, technique) skip take =
    let w = find_workload vm name in
    let loaded = w.Vmbp_workloads.load ~scale:1 in
    let session = loaded.Vmbp_workloads.fresh_session () in
    let profile = Vmbp_report.Runner.effective_profile ~scale:1 ~technique w in
    let rows =
      Vmbp_report.Dispatch_trace.trace ~technique ?profile
        ~program:loaded.Vmbp_workloads.program
        ~exec:session.Vmbp_workloads.exec ~skip ~take ()
    in
    print_string (Vmbp_report.Dispatch_trace.render rows)
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ cell_arg $ skip $ take)

(* ---------------- experiment ---------------- *)

(* [--jobs N] runs N - 1 worker domains beside the main one. *)
let jobs_arg ~most =
  Arg.(
    value
    & opt (domains_conv ~most) 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Run experiment cells on $(docv) domains (default sequential).")

let json_arg =
  out_file "json"
    ~doc:
      "Write a machine-readable per-cell summary (simulated counters plus \
       wall-clock timings) to $(docv)."

let trace_cap_arg =
  Arg.(
    value
    & opt int !Vmbp_report.Par_runner.trace_cap_mb
    & info [ "trace-cap-mb" ] ~docv:"MB"
        ~doc:
          "Memory budget for the VM control paths kept for path walks \
           (each workload's path is recorded once, by a simulator-free \
           run, and walked by every cell).  0 or negative disables path \
           walks and the result cache, so every cell runs live.")

(* Validate the chaos spec at parse time so a typo yields cmdliner's
   one-line usage error naming the flag, never a stack trace. *)
let chaos_conv =
  let parse s =
    match Vmbp_sim.Faults.configure s with
    | Ok () -> Ok s
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"SPEC" (parse, Fmt.string)

let chaos_arg =
  Arg.(
    value
    & opt (some chaos_conv) None
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault injection, e.g. 'record-fail=2' or \
           'worker-death=2+1' (skip 2 opportunities, then fire once) or \
           'store-io=0.1,seed=7' or 'pool-wedge=1@0.2'.  Points: \
           record-fail, worker-death, conn-drop, store-io, slow-client, \
           pool-wedge.  For exercising the supervision and service paths; \
           see EXPERIMENTS.md.")

let self_check_arg =
  Arg.(
    value
    & flag
    & info [ "self-check" ]
        ~doc:
          "Run every cell in lockstep against the naive reference models \
           and fail on the first divergence, writing a minimized repro \
           artifact (replay it with $(b,vmbp audit-repro)).  Bypasses path \
           walks and the result cache; expect a slower run.")

(* A malformed probability must produce a one-line usage error naming the
   flag, not a float_of_string failure. *)
let sample_conv =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0. && p <= 1. -> Ok p
    | Some _ | None ->
        Error (`Msg "expected a probability between 0 and 1")
  in
  Arg.conv ~docv:"P" (parse, fun ppf p -> Fmt.pf ppf "%g" p)

let audit_sample_arg =
  Arg.(
    value
    & opt sample_conv (Vmbp_report.Par_runner.default_ctx ()).audit_sample
    & info [ "audit-sample" ] ~docv:"P"
        ~doc:
          "Cross-check this fraction of the cells not produced by a live \
           run (path walks and result-cache hits) against a fresh live \
           run (deterministic, seeded per-cell sampling).  0 disables; \
           default 0.02.")

let repro_dir_arg =
  out_dir "repro-dir" ~doc:"Directory receiving divergence repro artifacts."

let trace_out_arg =
  out_file "trace-out"
    ~doc:
      "Collect phase-timing spans (layout, engine runs and walks, store \
       appends, audits) and write them to $(docv) as Chrome trace-event \
       JSON, loadable in Perfetto or chrome://tracing."

let metrics_arg =
  out_file "metrics"
    ~doc:
      "Write the process metrics registry (path-walk, store and cell \
       counters, pool gauges, per-cell histograms) to $(docv) as JSON \
       (schema vmbp-metrics/1) and summarise the key counters on stderr."

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Serve completed cells from (and append fresh successes to) the \
           checksummed content-addressed store in $(docv) -- the \
           same store $(b,vmbp serve) answers from, so a report run warms \
           the service and vice versa.  Every append is fsync'd, so an \
           interrupted run re-run with the same $(docv) resumes where it \
           stopped.  Corrupt records are skipped and counted on load.")

let progress_arg =
  Arg.(
    value
    & vflag None
        [
          ( Some true,
            info [ "progress" ]
              ~doc:
                "Show a one-line progress heartbeat on stderr (cells \
                 done/total, busy workers, ETA).  Default when stderr is a \
                 terminal." );
          ( Some false,
            info [ "no-progress" ] ~doc:"Never show the progress heartbeat."
          );
        ])

(* First Ctrl-C: drain in-flight cells (the store is already fsync'd per
   append), emit the report marked partial.  Second Ctrl-C: force.  A
   SIGINT within [sigint_grace] seconds of the first is the same interrupt
   delivered twice -- GNU [timeout -s INT] signals the child and then its
   process group -- so it neither forces nor prints anything. *)
let sigint_grace = 0.5

let install_sigint () =
  let first = ref None in
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle
       (fun _ ->
         let now = Vmbp_sim.Env.monotonic_now () in
         match !first with
         | Some t when now -. t < sigint_grace -> ()
         | Some _ -> exit 130
         | None ->
             first := Some now;
             Vmbp_report.Par_runner.request_shutdown ();
             prerr_endline
               "\nvmbp: interrupted -- finishing in-flight cells (Ctrl-C \
                again to force quit)"))

(* The spec was validated (and armed) by the argument converter; re-arm
   defensively so the converter stays side-effect-agnostic. *)
let arm_chaos = function
  | None -> ()
  | Some spec -> (
      match Vmbp_sim.Faults.configure spec with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "vmbp: bad --chaos spec: %s\n" msg;
          exit 2)

(* How a stopped run resumes: through its --store, if it had one. *)
let resume_hint = function
  | Some dir -> "re-run with the same --store " ^ dir ^ " to continue"
  | None -> "no --store was given, so the completed cells were not kept"

let partial_marker store_dir =
  if Vmbp_report.Par_runner.shutting_down () then
    Printf.printf
      "\n== PARTIAL REPORT: the run was interrupted; unfinished cells are \
       reported as errors.  %s. ==\n"
      (String.capitalize_ascii (resume_hint store_dir))

(* A worker death stops the run at any --jobs; it stands in for a killed
   process, so report a resumable failure instead of an uncaught
   exception. *)
let run_killable store_dir f =
  try f ()
  with Vmbp_sim.Faults.Worker_killed ->
    flush stdout;
    Printf.eprintf "vmbp: worker killed; %s\n" (resume_hint store_dir);
    exit 70

let write_json ~ctx ?store = function
  | None -> ()
  | Some file ->
      let cells = Vmbp_report.Par_runner.drain_log () in
      Vmbp_report.Par_runner.write_json_summary ~ctx ?store ~file cells;
      Printf.eprintf "wrote %d cell timings to %s\n" (List.length cells) file

(* Divergences are simulator bugs: summarize each one on stderr (with its
   repro artifact path, if one was written) and fail the run. *)
let finish_audit audit =
  match Vmbp_report.Audit.divergences audit with
  | [] -> ()
  | ds ->
      flush stdout;
      List.iter
        (fun d -> Printf.eprintf "%s\n" (Vmbp_report.Audit.describe d))
        ds;
      Printf.eprintf
        "vmbp: self-check found %d divergence(s); replay artifacts with \
         'vmbp audit-repro FILE'\n"
        (List.length ds);
      exit 3

(* The options [experiment] and [report] share, as one term: it builds
   the run's context from the flags, opens the --store directory, runs
   [body] under both at the requested scale, then writes what was asked
   for, closes the store and fails on a divergence. *)
let run_options =
  let run_with scale jobs trace_cap json store_dir chaos self_check
      audit_sample repro_dir trace_out metrics progress
      (body :
        Vmbp_report.Par_runner.ctx -> Vmbp_store.Store.t option ->
        int option -> unit) =
    Vmbp_report.Par_runner.trace_cap_mb := trace_cap;
    arm_chaos chaos;
    install_sigint ();
    let ctx =
      {
        Vmbp_report.Par_runner.jobs;
        progress =
          (match progress with
          | Some b -> b
          | None -> Unix.isatty Unix.stderr);
        self_check;
        audit_sample;
        audit = Vmbp_report.Audit.create_log ~repro_dir;
      }
    in
    let store =
      Option.map
        (fun dir -> exit_on_system_error (fun () -> Vmbp_store.Store.open_ dir))
        store_dir
    in
    Vmbp_obs.Registry.reset ();
    if trace_out <> None then Vmbp_obs.Span.enable ();
    run_killable store_dir (fun () -> body ctx store scale);
    partial_marker store_dir;
    write_json ~ctx ?store json;
    let c = Vmbp_obs.Registry.count in
    Vmbp_obs.Export.finish ?spans:trace_out ?metrics (fun () ->
        Printf.sprintf
          "[obs] vm path %d records / %d walks (%.0f bytes); group walks %d \
           / %d configs; store %d hits / %d appended"
          (c "vm_path.records") (c "vm_path.walks")
          (Vmbp_obs.Registry.gauge_value
             (Vmbp_obs.Registry.gauge "vm_path.bytes"))
          (c "trace.bank_replays") (c "trace.banked_configs") (c "store.hits")
          (c "store.appended"));
    Option.iter Vmbp_store.Store.close store;
    finish_audit ctx.audit
  in
  Term.(
    const run_with $ scale_opt_arg
    $ jobs_arg ~most:max_domains
    $ trace_cap_arg $ json_arg
    $ store_arg
    $ chaos_arg $ self_check_arg $ audit_sample_arg $ repro_dir_arg
    $ trace_out_arg $ metrics_arg $ progress_arg)

let experiment_cmd =
  let doc = "Regenerate one of the paper's tables or figures." in
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  let run id run_with =
    run_with (fun ctx store scale ->
        match Vmbp_report.Experiments.find id with
        | None ->
            Printf.eprintf "unknown experiment %s (try 'vmbp list')\n" id;
            exit 1
        | Some e ->
            let open Vmbp_report.Experiments in
            Printf.printf "== %s ==\n%s\n\n" e.title e.paper_claim;
            List.iter
              (fun (_, table) -> print_string table)
              (fst (run_batch ~ctx ?scale ?store [ e ])))
  in
  Cmd.v (Cmd.info "experiment" ~doc) Term.(const run $ id $ run_options)

(* ---------------- audit-repro ---------------- *)

let audit_repro_cmd =
  let doc =
    "Replay a divergence repro artifact written by --self-check."
  in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let run file =
    match Vmbp_report.Audit.load_repro file with
    | Error msg ->
        Printf.eprintf "vmbp: cannot load %s: %s\n" file msg;
        exit 2
    | Ok repro ->
        let open Vmbp_report.Audit in
        Printf.printf "cell      %s\n" repro.r_cell;
        Printf.printf "events    %d\n" (Array.length repro.r_events);
        Printf.printf "recorded  divergence at event %d: %s\n" repro.r_index
          repro.r_detail;
        (match replay_repro repro with
        | Some (idx, detail, fast, reference) ->
            Printf.printf "replayed  divergence at event %d: %s\n" idx detail;
            Printf.printf "  fast      %s\n" (pp_counters fast);
            Printf.printf "  reference %s\n" (pp_counters reference);
            exit 1
        | None ->
            Printf.printf
              "replayed  fast and reference simulators now agree on this \
               stream (bug no longer reproduces)\n";
            exit 0)
  in
  Cmd.v (Cmd.info "audit-repro" ~doc) Term.(const run $ file)

(* ---------------- report ---------------- *)

(* The whole registry runs as one batch, so the tables print when it
   ends. *)
let report_cmd =
  let doc = "Run every experiment and print the full reproduction report." in
  let run run_with =
    run_with (fun ctx store scale ->
        List.iter
          (fun ((e : Vmbp_report.Experiments.t), table) ->
            Printf.printf "== %s ==\nPaper: %s\n\n%s\n"
              e.Vmbp_report.Experiments.title
              e.Vmbp_report.Experiments.paper_claim table)
          (fst
             (Vmbp_report.Experiments.run_batch ~ctx ?scale ?store
                Vmbp_report.Experiments.all)))
  in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ run_options)

(* ---------------- serve / loadgen / client ---------------- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket of the report service.")

(* A service that cannot be reached is one line naming the socket. *)
let connect_failed socket e =
  Printf.eprintf "vmbp: cannot connect to %s: %s\n" socket
    (Unix.error_message e);
  exit 1

let serve_cmd =
  let doc =
    "Serve report cells from a crash-tolerant content-addressed store over \
     a Unix-domain socket."
  in
  let store =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Store directory (created if missing; corrupt records found on \
             load are repaired by a compaction pass, and records this build \
             cannot read are kept unserved).")
  in
  (* Its compute domain takes one of the process's domains. *)
  let jobs = jobs_arg ~most:(max_domains - 1) in
  let admission =
    Arg.(
      value & opt positive_conv 64
      & info [ "admission" ] ~docv:"N"
          ~doc:
            "Max distinct cell configurations in compute flight; further \
             misses are shed with an 'overloaded' reply.")
  in
  let request_timeout =
    Arg.(
      value & opt positive_float_conv 30.
      & info [ "request-timeout" ] ~docv:"SEC"
          ~doc:"Per-request deadline; an unanswered waiter gets 'timeout'.")
  in
  let slow_reader =
    Arg.(
      value & opt positive_float_conv 5.
      & info [ "slow-reader-timeout" ] ~docv:"SEC"
          ~doc:
            "Drop a connection whose outbound bytes make no progress for \
             $(docv) seconds.")
  in
  let max_frame =
    Arg.(
      value
      & opt positive_conv (64 * 1024)
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Reject request frames larger than $(docv).")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Log per-event detail.")
  in
  let flight_dir =
    out_dir "flight-dir"
      ~doc:
        "Directory receiving vmbp-flight-*.json crash-flight-recorder dumps \
         (unclean exit, SIGQUIT, the 'dump' verb)."
  in
  let serve_trace_out =
    out_file "trace-out"
      ~doc:
        "Collect end-to-end request-tracing spans (accept, parse, \
         admission, compute batches, store appends, reply flushes, linked \
         by request id) and write them to $(docv) as Chrome trace-event \
         JSON at drain."
  in
  let serve_metrics =
    out_file "metrics"
      ~doc:
        "Write the live telemetry registry (per-verb and per-phase latency \
         histograms, queue/inflight/connection gauges, shed/coalesce \
         counters) to $(docv) as vmbp-metrics/1 JSON at drain.  The same \
         registry is queryable live via the 'metrics' verb and $(b,vmbp \
         top)."
  in
  let run socket store jobs admission request_timeout
      slow_reader max_frame chaos verbose flight_dir
      trace_out metrics =
    arm_chaos chaos;
    Vmbp_obs.Registry.reset ();
    exit_on_system_error @@ fun () ->
    Vmbp_service.Service.serve
      {
        Vmbp_service.Service.socket;
        store_dir = store;
        jobs;
        admission;
        request_timeout;
        slow_reader_timeout = slow_reader;
        max_request_frame = max_frame;
        verbose;
        quiet = false;
        trace_out;
        metrics_out = metrics;
        flight_dir;
      }
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ store $ jobs $ admission $ request_timeout
      $ slow_reader $ max_frame $ chaos_arg $ verbose $ flight_dir
      $ serve_trace_out $ serve_metrics)

let loadgen_cmd =
  let doc =
    "Drive zipf-distributed queries at a running report service and print \
     a throughput/latency report."
  in
  (* One domain per client, beside the main one. *)
  let clients =
    Arg.(
      value
      & opt (domains_conv ~most:(max_domains - 1)) 4
      & info [ "clients" ] ~docv:"N")
  in
  let requests =
    Arg.(
      value & opt non_negative_conv 1000
      & info [ "n"; "requests" ] ~docv:"N"
          ~doc:"Total queries across all clients.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N") in
  let zipf =
    Arg.(
      value
      & opt non_negative_float_conv 1.1
      & info [ "zipf" ] ~docv:"S" ~doc:"Skew exponent; 0 = uniform.")
  in
  let json =
    out_file "json"
      ~doc:
        "Write a machine-readable run summary (schema vmbp-loadgen/1: \
         statuses, throughput, latency quantiles) to $(docv)."
  in
  let run socket clients requests seed zipf scale json trace_out metrics =
    Vmbp_obs.Registry.reset ();
    if trace_out <> None then Vmbp_obs.Span.enable ();
    (try
       Vmbp_service.Loadgen.run
         {
           Vmbp_service.Loadgen.socket;
           clients;
           requests;
           seed;
           zipf;
           scale;
           json_out = json;
         }
     with Unix.Unix_error (e, "connect", _) -> connect_failed socket e);
    let c name = Vmbp_obs.Registry.count ("loadgen.status." ^ name) in
    Vmbp_obs.Export.finish ?spans:trace_out ?metrics (fun () ->
        Printf.sprintf
          "[obs] statuses ok=%d overloaded=%d timeout=%d conn-drop=%d \
           rid-mismatch=%d; spans=%d"
          (c "ok") (c "overloaded") (c "timeout")
          (c "conn-drop") (c "rid-mismatch") (Vmbp_obs.Span.count ()))
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(
      const run $ socket_arg $ clients $ requests $ seed $ zipf $ scale_arg
      $ json $ trace_out_arg $ metrics_arg)

let client_cmd =
  let doc =
    "Send one request to a running report service and print the reply."
  in
  let verb =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"VERB"
          ~doc:"One of query, grid, stats, health, metrics, dump, shutdown.")
  in
  let vm = Arg.(value & opt (some string) None & info [ "vm" ] ~docv:"VM") in
  let workload =
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME")
  in
  let technique =
    Arg.(value & opt (some string) None & info [ "technique" ] ~docv:"NAME")
  in
  let cpu =
    Arg.(value & opt (some string) None & info [ "cpu" ] ~docv:"NAME")
  in
  let predictor =
    Arg.(
      value
      & opt (some string) None
      & info [ "predictor" ] ~docv:"P" ~doc:"perfect or never")
  in
  let out =
    out_file "out"
      ~doc:
        "Write the reply's embedded document (a grid reply's vmbp-cells \
         document, a metrics reply's body) to $(docv) instead of printing \
         the raw reply."
  in
  let format =
    Arg.(
      value
      & opt (some string) None
      & info [ "format" ] ~docv:"FMT"
          ~doc:"For the metrics verb: json (default) or prometheus.")
  in
  let run socket verb vm workload technique cpu scale predictor out format =
    let payload =
      match verb with
      | "query" -> (
          match (vm, workload, technique, cpu) with
          | Some vm, Some workload, Some technique, Some cpu ->
              Vmbp_service.Protocol.query_payload ~vm ~workload ~technique
                ~cpu ?scale ?predictor ()
          | _ ->
              Printf.eprintf
                "vmbp: client query needs --vm --workload --technique --cpu\n";
              exit 2)
      | "grid" ->
          Vmbp_service.Protocol.obj
            (("verb", Vmbp_service.Protocol.S "grid")
            ::
            (match scale with
            | Some n -> [ ("scale", Vmbp_service.Protocol.I n) ]
            | None -> []))
      | "metrics" ->
          Vmbp_service.Protocol.obj
            (("verb", Vmbp_service.Protocol.S "metrics")
            ::
            (match format with
            | Some f -> [ ("format", Vmbp_service.Protocol.S f) ]
            | None -> []))
      | ("stats" | "health" | "dump" | "shutdown") as v ->
          Vmbp_service.Protocol.obj [ ("verb", Vmbp_service.Protocol.S v) ]
      | v ->
          Printf.eprintf "vmbp: unknown verb %S\n" v;
          exit 2
    in
    let fd =
      try Vmbp_service.Protocol.connect socket
      with Unix.Unix_error (e, _, _) -> connect_failed socket e
    in
    Vmbp_service.Protocol.write_frame fd payload;
    (match Vmbp_service.Protocol.read_frame fd with
    | None ->
        Printf.eprintf "vmbp: server closed the connection without a reply\n";
        exit 1
    | Some reply ->
        let fields =
          try Vmbp_store.Sjson.parse_line reply
          with Vmbp_store.Sjson.Bad -> []
        in
        let doc =
          match Vmbp_store.Sjson.str_opt fields "cells" with
          | Some _ as d -> d
          | None -> Vmbp_store.Sjson.str_opt fields "body"
        in
        (match (out, doc) with
        | Some file, Some doc ->
            let oc = open_out file in
            output_string oc doc;
            close_out oc;
            Printf.eprintf "wrote reply document to %s\n" file
        | Some _, None ->
            print_endline reply;
            Printf.eprintf "vmbp: reply carries no embedded document\n";
            exit 1
        | None, _ -> print_endline reply);
        if Vmbp_store.Sjson.str_opt fields "status" <> Some "ok" then exit 1);
    Unix.close fd
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ socket_arg $ verb $ vm $ workload $ technique $ cpu
      $ scale_opt_arg $ predictor $ out $ format)

let top_cmd =
  let doc =
    "Live terminal monitor for a running report service: request rate, \
     store-hit ratio, queue/inflight gauges and per-verb latency quantiles, \
     polled from the service's 'metrics' verb."
  in
  let interval =
    Arg.(
      value & opt positive_float_conv 2.
      & info [ "interval" ] ~docv:"SEC" ~doc:"Seconds between polls.")
  in
  let count =
    Arg.(
      value
      & opt (some positive_conv) None
      & info [ "count" ] ~docv:"N"
          ~doc:"Draw $(docv) screens, then exit 0 (default: run forever).")
  in
  let run socket interval count =
    exit
      (Vmbp_service.Top.run ~socket ~interval ?iterations:count ())
  in
  Cmd.v (Cmd.info "top" ~doc) Term.(const run $ socket_arg $ interval $ count)

(* ---------------- explain ---------------- *)

let explain_cmd =
  let doc =
    "Attribute every mispredict and I-cache miss of one cell to VM opcodes."
  in
  let top =
    Arg.(
      value & opt positive_conv 10
      & info [ "top" ] ~docv:"N" ~doc:"rows per attribution table")
  in
  let run (vm, name, technique) cpu scale top repro_dir =
    let w = find_workload vm name in
    let audit = Vmbp_report.Audit.create_log ~repro_dir in
    match Vmbp_report.Explain.run ~scale ~audit ~cpu ~technique w with
    | Error msg ->
        Printf.eprintf "explain failed: %s\n" msg;
        exit 1
    | Ok t ->
        print_string (Vmbp_report.Explain.render ~top t);
        Printf.eprintf
          "[explain] attribution verified against a self-checked run\n"
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const run $ cell_arg $ cell_cpu_arg $ scale_arg $ top $ repro_dir_arg)

let simulate_cmd =
  let doc =
    "Deterministic simulation testing: sweep seeded whole-system schedules \
     of the report service under virtual time, simulated sockets and disks, \
     and power-cut crash/restart, checking durability, determinism, \
     liveness and store integrity on every one."
  in
  let seeds =
    Arg.(
      value & opt positive_conv 1000
      & info [ "seeds" ] ~docv:"N"
          ~doc:
            "Seeds to sweep (with $(b,--mutate): the budget within which \
             the re-introduced bug must be caught).")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:"Run exactly this one seed (replay a reported failure).")
  in
  let first =
    Arg.(
      value & opt int 1
      & info [ "first-seed" ] ~docv:"N" ~doc:"First seed of the sweep.")
  in
  let mutate =
    Arg.(
      value
      & opt (some (enum Vmbp_service.Simulate.mutations)) None
      & info [ "mutate" ] ~docv:"BUG"
          ~doc:
            (Printf.sprintf
               "Re-introduce a past bug and demand the harness catches it \
                within the seed budget (exit 0 on catch).  One of: %s."
               (String.concat ", " Vmbp_service.Simulate.mutation_names)))
  in
  let trace_file =
    out_file "trace-file" ~docv:"PATH"
      ~doc:"Where to write a failing schedule's trace."
  in
  let span_out =
    out_file "trace-out"
      ~doc:
        "Write the last seed's span trace (Chrome trace-event JSON on the \
         virtual clock; byte-identical across replays of the same seed) to \
         $(docv)."
  in
  let metrics_out =
    out_file "metrics" ~doc:"Write the last seed's metrics registry to $(docv)."
  in
  let run seeds seed first mutation trace_file span_out metrics_out =
    let first_seed, seeds =
      match seed with Some s -> (s, 1) | None -> (first, seeds)
    in
    exit
      (Vmbp_service.Simulate.run ~first_seed ?mutation ?trace_file ?span_out
         ?metrics_out ~seeds ())
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ seeds $ seed $ first $ mutate $ trace_file $ span_out
      $ metrics_out)

let store_cmd =
  let scrub_cmd =
    let doc =
      "Offline integrity scan of a store directory: per-file counts of \
       well-formed, corrupt, unreadable (intact, but written by another \
       record format; kept by compaction) and stale-fingerprint records.  \
       Exits 4 if any corruption is found (after the repair when \
       $(b,--compact) is given)."
    in
    (* [Arg.dir] rejects a path that is not an existing directory, so a
       mistyped path is a usage error, not a clean scan of nothing. *)
    let dir =
      Arg.(
        required
        & pos 0 (some dir) None
        & info [] ~docv:"DIR" ~doc:"Store directory to scan.")
    in
    let compact =
      Arg.(
        value & flag
        & info [ "compact" ]
            ~doc:
              "Repair in place: open the store (which skips corrupt \
               records) and compact it, then re-scan.")
    in
    let print_reports reports =
      let line name r c u s =
        Printf.printf
          "%-14s records %-6d corrupt %-4d unreadable %-4d stale %d\n" name r
          c u s
      in
      let tr, tc, tu, ts =
        List.fold_left
          (fun (r, c, u, s) (sr : Vmbp_store.Store.scrub_report) ->
            line sr.sr_file sr.sr_records sr.sr_corrupt sr.sr_unreadable
              sr.sr_stale;
            ( r + sr.sr_records,
              c + sr.sr_corrupt,
              u + sr.sr_unreadable,
              s + sr.sr_stale ))
          (0, 0, 0, 0) reports
      in
      line "total" tr tc tu ts;
      tc
    in
    let run dir compact =
      let corrupt = print_reports (Vmbp_store.Store.scrub dir) in
      let corrupt =
        if compact && corrupt > 0 then begin
          Printf.printf "compacting %s in place...\n" dir;
          let st = Vmbp_store.Store.open_ dir in
          Vmbp_store.Store.compact st;
          Vmbp_store.Store.close st;
          print_reports (Vmbp_store.Store.scrub dir)
        end
        else corrupt
      in
      if corrupt > 0 then exit 4
    in
    Cmd.v (Cmd.info "scrub" ~doc) Term.(const run $ dir $ compact)
  in
  let doc = "Store maintenance commands." in
  Cmd.group (Cmd.info "store" ~doc) [ scrub_cmd ]

let () =
  let doc =
    "Reproduction of 'Optimizing Indirect Branch Prediction Accuracy in \
     Virtual Machine Interpreters'"
  in
  let info = Cmd.info "vmbp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            trace_cmd;
            experiment_cmd;
            report_cmd;
            serve_cmd;
            loadgen_cmd;
            client_cmd;
            top_cmd;
            simulate_cmd;
            store_cmd;
            explain_cmd;
            audit_repro_cmd;
          ]))
