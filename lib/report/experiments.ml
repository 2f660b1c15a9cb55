open Vmbp_core
open Vmbp_machine

type t = {
  id : string;
  title : string;
  paper_claim : string;
  default_scale : int;
  plan : scale:int -> Par_runner.cell list * (Par_runner.timed list -> string);
  run : scale:int -> string;
}

let buf_add = Buffer.add_string

(* ------------------------------------------------------------------ *)
(* Plans.

   Every experiment declares its cells up front, with a render over their
   results in the same order; no experiment runs a cell itself.  [run_plan]
   runs a plan's cells as one {!Par_runner.run_cells} batch: with --jobs N
   the groups spread over N domains, a trapped cell degrades to a "fail"
   table entry instead of aborting its siblings, and results come back in
   input order, so the rendered tables are identical for every job count
   and whether an experiment runs alone or in {!run_batch}.  A plan with
   no cells (Tables I-IV, VI, VII) runs no batch, so it draws no progress
   line and opens no store pass. *)

let run_plan (cells, render) =
  render (match cells with [] -> [] | _ -> Par_runner.run_cells cells)

(* The first [n] elements of [l], and the rest. *)
let split_at n l =
  let rec go k acc rest =
    if k = 0 then (List.rev acc, rest)
    else
      match rest with
      | x :: rest' -> go (k - 1) (x :: acc) rest'
      | [] -> invalid_arg "split_at: ragged result list"
  in
  go n [] l

let rec chunks n = function
  | [] -> []
  | l ->
      let row, rest = split_at n l in
      row :: chunks n rest

(* A rows x columns experiment: one cell per (row, column), row-major, and
   a render that gets every row with its results in column order. *)
let grid ~rows ~cols cell render =
  ( List.concat_map (fun r -> List.map (cell r) cols) rows,
    fun results ->
      render (List.combine rows (chunks (List.length cols) results)) )

(* The usual render: one table row per grid row, then [note]. *)
let table ~headers ?(note = "") row rows =
  Table.render ~headers
    ~rows:(List.map (fun (r, results) -> row r results) rows)
  ^ note

(* A table that runs no cell: it is computed when rendered. *)
let no_cells f ~scale:_ = ([], fun _ -> f ())

let variants_for = function
  | Vmbp_workloads.Forth -> Technique.paper_gforth_variants
  | Vmbp_workloads.Jvm -> Technique.paper_jvm_variants

let workloads_for = function
  | Vmbp_workloads.Forth -> Vmbp_workloads.forth
  | Vmbp_workloads.Jvm -> Vmbp_workloads.jvm

let find_workload ~vm name =
  match Vmbp_workloads.find ~vm name with
  | Some w -> w
  | None -> invalid_arg ("unknown workload " ^ name)

let ok_run (t : Par_runner.timed) =
  match t.Par_runner.outcome with Ok r -> Some r | Error _ -> None

(* Render one cell's value, or "fail" for an isolated failed run. *)
let cell_str f (t : Par_runner.timed) =
  match t.Par_runner.outcome with Ok r -> f r | Error _ -> "fail"

let mispredict_rate =
  cell_str (fun r ->
      Printf.sprintf "%.1f%%"
        (100. *. Metrics.misprediction_rate r.Runner.result.Engine.metrics))

(* Every cell of a row against the row's first cell, its plain run:
   [f speedup run], or "fail" where either run failed. *)
let over_plain f row =
  let baseline = match row with b :: _ -> ok_run b | [] -> None in
  List.map
    (fun t ->
      match (baseline, ok_run t) with
      | Some baseline, Some r -> f (Runner.speedup ~baseline r) r
      | _ -> "fail")
    row

(* ------------------------------------------------------------------ *)
(* Speedup, counter and static-mix figures *)

let cpu_p4 = Cpu_model.pentium4_northwood
let cpu_celeron = Cpu_model.celeron_800

let render_speedups ~vm ~cpu ~scale =
  let techniques = variants_for vm in
  let tag =
    Printf.sprintf "speedups/%s/%s" (Vmbp_workloads.vm_name vm)
      cpu.Cpu_model.name
  in
  grid ~rows:(workloads_for vm) ~cols:techniques
    (fun w technique -> Par_runner.cell ~tag ~scale ~cpu ~technique w)
    (table
       ~headers:("benchmark" :: List.map Technique.name techniques)
       (fun (w : Vmbp_workloads.t) row ->
         w.Vmbp_workloads.name :: over_plain (fun s _ -> Table.f2 s) row))

let metric_labels =
  [ "cycles"; "instrs"; "indirect branches"; "indirect mispredicted";
    "icache misses"; "miss cycles"; "code KB" ]

(* Per variant, the seven metrics of Figures 10-13 normalised to plain
   (code bytes raw, in KB). *)
let render_counters ~vm ~workload ~cpu ~scale =
  let metrics (r : Runner.run) =
    let m = r.Runner.result.Engine.metrics in
    let miss_cycles =
      float_of_int
        (m.Metrics.icache_misses * cpu.Cpu_model.icache_miss_penalty)
    in
    [
      r.Runner.result.Engine.cycles;
      float_of_int m.Metrics.native_instrs;
      float_of_int m.Metrics.indirect_branches;
      float_of_int m.Metrics.mispredicts;
      float_of_int m.Metrics.icache_misses;
      miss_cycles;
      float_of_int m.Metrics.code_bytes /. 1024.;
    ]
  in
  grid ~rows:(variants_for vm) ~cols:[ find_workload ~vm workload ]
    (fun technique w ->
      Par_runner.cell ~tag:("counters/" ^ workload) ~scale ~cpu ~technique w)
    (fun rows ->
      (* A failed variant drops its row; the others still render, against
         plain or else the first variant that ran. *)
      let runs =
        List.filter_map
          (fun (t, row) ->
            Option.map (fun r -> (t, metrics r)) (List.find_map ok_run row))
          rows
      in
      let plain = match runs with (_, m) :: _ -> m | [] -> [] in
      Table.render
        ~headers:("variant" :: metric_labels)
        ~rows:
          (List.map
             (fun (t, vals) ->
               Technique.name t
               :: List.mapi
                    (fun k v ->
                      Table.f2
                        (if k = 6 then v (* code KB stays raw *)
                         else
                           let base = List.nth plain k in
                           if base = 0. then 0. else v /. base))
                    vals)
             runs))

let percents = [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ]

let static_mix_plan ~vm ~workload ~cpu ~totals ~scale =
  let w = find_workload ~vm workload in
  grid ~rows:totals ~cols:percents
    (fun total pct ->
      let supers = total * pct / 100 in
      let technique =
        if total = 0 then Technique.Plain
        else
          Technique.Static
            (Technique.static_params ~replicas:(total - supers)
               ~superinstrs:supers ())
      in
      Par_runner.cell ~tag:("static-mix/" ^ workload) ~scale ~cpu ~technique
        w)
    (List.map (fun (total, row) ->
         ( total,
           List.map2
             (fun pct t ->
               match ok_run t with
               | Some r ->
                   ( pct,
                     r.Runner.result.Engine.cycles,
                     r.Runner.result.Engine.metrics.Metrics.mispredicts )
               | None -> (pct, Float.nan, 0))
             percents row )))

let static_mix ~scale ~vm ~workload ~cpu ~totals =
  run_plan (static_mix_plan ~vm ~workload ~cpu ~totals ~scale)

let render_static_mix ~which ~vm ~workload ~cpu ~totals ~scale =
  let cells, series = static_mix_plan ~vm ~workload ~cpu ~totals ~scale in
  ( cells,
    fun results ->
      Table.render
        ~headers:("total \\ %super" :: List.map string_of_int percents)
        ~rows:
          (List.map
             (fun (total, series) ->
               string_of_int total
               :: List.map
                    (fun (_, cycles, mispredicts) ->
                      match which with
                      | `Cycles -> Printf.sprintf "%.2fM" (cycles /. 1e6)
                      | `Mispredicts -> Table.human_int mispredicts)
                    series)
             (series results)) )

(* ------------------------------------------------------------------ *)
(* Worked-example tables (I-IV) *)

let toy_trace ~technique ?profile ~program ~skip ~take () =
  let state = Vmbp_toyvm.Toy_vm.create_state ~counters:(Array.make 16 50) () in
  Dispatch_trace.trace ~technique ?profile ~program
    ~exec:(Vmbp_toyvm.Toy_vm.exec state) ~skip ~take ()

let table1 () =
  let program = Vmbp_toyvm.Toy_vm.table1_loop () in
  let b = Buffer.create 512 in
  buf_add b "VM program: label: A ; B ; A ; loop label  (steady state)\n\n";
  buf_add b "Switch dispatch (one shared indirect branch):\n";
  buf_add b
    (Dispatch_trace.render
       (toy_trace ~technique:Technique.switch ~program ~skip:8 ~take:8 ()));
  buf_add b "\nThreaded dispatch (one branch per VM instruction):\n";
  buf_add b
    (Dispatch_trace.render
       (toy_trace ~technique:Technique.plain ~program ~skip:8 ~take:8 ()));
  Buffer.contents b

let table2 () =
  let program = Vmbp_toyvm.Toy_vm.table1_loop () in
  let profile = Vmbp_vm.Profile.empty ~max_seq_len:4 in
  Vmbp_vm.Profile.add_program profile program;
  let b = Buffer.create 512 in
  buf_add b
    "Same loop with static replication (round-robin copies of A):\n";
  buf_add b
    (Dispatch_trace.render
       (toy_trace
          ~technique:(Technique.static_repl ~n:8 ())
          ~profile ~program ~skip:8 ~take:8 ()));
  Buffer.contents b

let table3 () =
  let program = Vmbp_toyvm.Toy_vm.table3_loop () in
  let b = Buffer.create 512 in
  buf_add b "VM program: label: A B A B A ; loop label (threaded code)\n";
  buf_add b
    (Dispatch_trace.render
       (toy_trace ~technique:Technique.plain ~program ~skip:12 ~take:12 ()));
  buf_add b
    "\nBad replication can increase mispredictions: with exactly two\n\
     round-robin copies of B, both instances of A are followed by\n\
     different replicas, so A's branch never predicts correctly.\n";
  Buffer.contents b

let table4 () =
  let program = Vmbp_toyvm.Toy_vm.table1_loop () in
  let profile = Vmbp_vm.Profile.empty ~max_seq_len:4 in
  Vmbp_vm.Profile.add_program profile program;
  let b = Buffer.create 512 in
  buf_add b "Same loop with a static superinstruction covering A-B:\n";
  buf_add b
    (Dispatch_trace.render
       (toy_trace
          ~technique:(Technique.static_super ~n:2 ())
          ~profile ~program ~skip:6 ~take:6 ()));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Comparator tables (V, VIII, IX, X) *)

let seconds_of_cycles cycles cpu =
  cycles /. (float_of_int cpu.Cpu_model.mhz *. 1e6)

(* A documented comparator model's cycles for [w] on the Pentium 4,
   derived from its plain run. *)
let model_cycles ~scale (w : Vmbp_workloads.t) (plain : Runner.run) m =
  let slots =
    Vmbp_vm.Program.length
      (w.Vmbp_workloads.load ~scale).Vmbp_workloads.program
  in
  Native_model.cycles m ~cpu:cpu_p4 ~costs:Costs.default
    ~plain:plain.Runner.result ~slots

let table5 ~scale =
  grid ~rows:Vmbp_workloads.jvm ~cols:[ Technique.plain ]
    (fun w technique ->
      Par_runner.cell ~tag:"table5" ~scale ~cpu:cpu_p4 ~technique w)
    (table
       ~headers:
         [ "benchmark"; "our base (ms)"; "Hotspot int"; "Kaffe int";
           "Hotspot mixed"; "Kaffe JIT" ]
       ~note:
         "\n(all comparator columns are documented analytic models; see \
          DESIGN.md)\n"
       (fun (w : Vmbp_workloads.t) row ->
         match List.filter_map ok_run row with
         | [ plain ] ->
             w.Vmbp_workloads.name
             :: Printf.sprintf "%.1f"
                  (1e3 *. plain.Runner.result.Engine.seconds)
             :: List.map
                  (fun m ->
                    Printf.sprintf "%.1f"
                      (1e3
                      *. seconds_of_cycles (model_cycles ~scale w plain m)
                           cpu_p4))
                  Native_model.
                    [ hotspot_interp; kaffe_interp; hotspot_mixed; kaffe_jit ]
         | _ -> [ w.Vmbp_workloads.name; "fail"; "-"; "-"; "-"; "-" ]))

let inventory vm () =
  Table.render ~headers:[ "program"; "description" ]
    ~rows:
      (List.map
         (fun (w : Vmbp_workloads.t) -> [ w.Vmbp_workloads.name; w.Vmbp_workloads.description ])
         (workloads_for vm))

let table8 ~scale =
  let schemes =
    [
      ("dynamic super", Technique.dynamic_super);
      ("across bb", Technique.across_bb);
      ("w/static across bb", Technique.with_static_across_bb ());
    ]
  in
  grid ~rows:Vmbp_workloads.jvm ~cols:schemes
    (fun w (_, t) ->
      Par_runner.cell ~tag:"table8" ~scale ~cpu:cpu_p4 ~technique:t w)
    (table
       ~headers:("benchmark" :: List.map (fun (n, _) -> n ^ " (MB)") schemes)
       (fun (w : Vmbp_workloads.t) row ->
         w.Vmbp_workloads.name
         :: List.map
              (cell_str (fun r ->
                   Printf.sprintf "%.2f"
                     (float_of_int
                        r.Runner.result.Engine.metrics.Metrics.code_bytes
                     /. 1024. /. 1024.)))
              row))

(* Tables IX and X: [technique]'s speedup over plain on the Pentium 4,
   beside the documented native-code models' speedups over the same plain
   run. *)
let versus_models ~tag ~workloads ~technique ~models ~headers ~note ~scale =
  grid ~rows:workloads ~cols:[ Technique.plain; technique ]
    (fun w t -> Par_runner.cell ~tag ~scale ~cpu:cpu_p4 ~technique:t w)
    (table ~headers ~note (fun (w : Vmbp_workloads.t) row ->
         match List.filter_map ok_run row with
         | [ plain; ours ] ->
             w.Vmbp_workloads.name
             :: Table.f2 (Runner.speedup ~baseline:plain ours)
             :: List.map
                  (fun m ->
                    Table.f2
                      (plain.Runner.result.Engine.cycles
                      /. model_cycles ~scale w plain m))
                  models
         | _ ->
             w.Vmbp_workloads.name :: "fail" :: List.map (fun _ -> "-") models))

let table9 =
  versus_models ~tag:"table9"
    ~workloads:
      (List.map
         (find_workload ~vm:Vmbp_workloads.Forth)
         [ "tscp"; "brainless"; "brew" ])
    ~technique:Technique.across_bb
    ~models:Native_model.[ bigforth; iforth ]
    ~headers:[ "benchmark"; "across bb"; "bigForth (model)"; "iForth (model)" ]
    ~note:"\n(speedups over plain; native compilers are documented models)\n"

let table10 =
  versus_models ~tag:"table10" ~workloads:Vmbp_workloads.jvm
    ~technique:(Technique.with_static_across_bb ())
    ~models:Native_model.[ kaffe_jit; hotspot_interp; hotspot_mixed ]
    ~headers:
      [ "benchmark"; "w/static across bb"; "Kaffe JIT"; "Hotspot int";
        "Hotspot mixed" ]
    ~note:"\n(speedups over plain; JVM comparators are documented models)\n"

(* ------------------------------------------------------------------ *)
(* Ablations *)

let btb_sweep ~scale =
  let w = find_workload ~vm:Vmbp_workloads.Forth "bench-gc" in
  let techniques =
    [ Technique.plain; Technique.static_repl (); Technique.dynamic_repl ]
  in
  grid ~rows:[ 64; 128; 256; 512; 1024; 2048; 4096; 0 ] ~cols:techniques
    (fun entries t ->
      let predictor =
        if entries = 0 then Predictor.Btb Btb.ideal
        else Predictor.Btb (Btb.classic ~entries ~associativity:4)
      in
      Par_runner.cell ~tag:"btb-sweep" ~scale ~predictor ~cpu:cpu_celeron
        ~technique:t w)
    (table
       ~headers:("BTB entries" :: List.map Technique.name techniques)
       (fun entries row ->
         (if entries = 0 then "unbounded" else string_of_int entries)
         :: List.map mispredict_rate row))

let predictor_compare ~scale =
  let w = find_workload ~vm:Vmbp_workloads.Forth "bench-gc" in
  let techniques = [ Technique.switch; Technique.plain; Technique.dynamic_super ] in
  grid
    ~rows:
      [
        Predictor.Btb (Btb.classic ~entries:512 ~associativity:4);
        Predictor.Btb (Btb.with_counters ~entries:512 ~associativity:4);
        Predictor.Two_level Two_level.default;
        Predictor.Case_block 256;
        Predictor.Perfect;
      ]
    ~cols:techniques
    (fun p t ->
      Par_runner.cell ~tag:"predictors" ~scale ~predictor:p ~cpu:cpu_celeron
        ~technique:t w)
    (table
       ~headers:("predictor" :: List.map Technique.name techniques)
       (fun p row -> Predictor.kind_name p :: List.map mispredict_rate row))

let replica_strategy ~scale =
  grid ~rows:Vmbp_workloads.forth
    ~cols:[ Technique.Round_robin; Technique.Random 42 ]
    (fun w strategy ->
      Par_runner.cell ~tag:"replica-strategy" ~scale ~cpu:cpu_celeron
        ~technique:
          (Technique.Static
             (Technique.static_params ~replicas:400 ~strategy ()))
        w)
    (table ~headers:[ "benchmark"; "round-robin"; "random"; "random/rr" ]
       (fun (w : Vmbp_workloads.t) row ->
         match List.filter_map ok_run row with
         | [ rr; rand ] ->
             let rr = rr.Runner.result.Engine.cycles in
             let rand = rand.Runner.result.Engine.cycles in
             [ w.Vmbp_workloads.name; Printf.sprintf "%.2fM" (rr /. 1e6);
               Printf.sprintf "%.2fM" (rand /. 1e6); Table.f2 (rand /. rr) ]
         | _ -> [ w.Vmbp_workloads.name; "fail"; "-"; "-" ]))

let parse_algo ~scale =
  grid
    ~rows:(Vmbp_workloads.forth @ Vmbp_workloads.jvm)
    ~cols:[ Technique.Greedy; Technique.Optimal ]
    (fun w parse ->
      Par_runner.cell ~tag:"parse-algo" ~scale ~cpu:cpu_p4
        ~technique:
          (Technique.Static
             (Technique.static_params ~superinstrs:400 ~parse ()))
        w)
    (table
       ~headers:
         [ "benchmark"; "greedy dispatches"; "optimal dispatches";
           "greedy/optimal cycles" ]
       (fun (w : Vmbp_workloads.t) row ->
         match List.filter_map ok_run row with
         | [ greedy; optimal ] ->
             let stats (r : Runner.run) =
               ( r.Runner.result.Engine.cycles,
                 r.Runner.result.Engine.metrics.Metrics.dispatches )
             in
             let gc, gd = stats greedy in
             let oc, od = stats optimal in
             [
               w.Vmbp_workloads.name;
               Table.human_int gd;
               Table.human_int od;
               Table.f2 (gc /. oc);
             ]
         | _ -> [ w.Vmbp_workloads.name; "fail"; "-"; "-" ]))

let subroutine_threading ~scale =
  let techniques =
    [ Technique.plain; Technique.dynamic_super; Technique.across_bb;
      Technique.subroutine ]
  in
  grid ~rows:Vmbp_workloads.forth ~cols:techniques
    (fun w t ->
      Par_runner.cell ~tag:"subroutine-threading" ~scale ~cpu:cpu_p4
        ~technique:t w)
    (table
       ~headers:("benchmark" :: List.map Technique.name techniques)
       (fun (w : Vmbp_workloads.t) row ->
         w.Vmbp_workloads.name
         :: over_plain
              (fun s r ->
                Printf.sprintf "%s (%s mp)" (Table.f2 s)
                  (Table.human_int
                     r.Runner.result.Engine.metrics.Metrics.mispredicts))
              row))

(* Residual mispredictions under dynamic replication: the paper's
   simulations attribute them to indirect VM branches, mostly returns. *)
let residual_mispredicts ~scale =
  grid ~rows:Vmbp_workloads.forth ~cols:[ Technique.dynamic_repl ]
    (fun w technique ->
      Par_runner.cell ~tag:"residual-mispredicts" ~scale ~cpu:Cpu_model.ideal
        ~technique w)
    (table
       ~headers:
         [ "benchmark"; "mispredicts"; "at VM control transfers"; "share" ]
       ~note:
         "\n(unbounded BTB, so no capacity/conflict noise: what remains after\n\
          dynamic replication follows VM branches, calls and returns; the rest\n\
          are compulsory first-execution misses of the fresh copies)\n"
       (fun (w : Vmbp_workloads.t) row ->
         match List.find_map ok_run row with
         | None -> [ w.Vmbp_workloads.name; "fail"; "-"; "-" ]
         | Some r ->
             let m = r.Runner.result.Engine.metrics in
             [
               w.Vmbp_workloads.name;
               Table.human_int m.Metrics.mispredicts;
               Table.human_int m.Metrics.vm_branch_mispredicts;
               Printf.sprintf "%.1f%%"
                 (100.
                 *. float_of_int m.Metrics.vm_branch_mispredicts
                 /. float_of_int (max 1 m.Metrics.mispredicts));
             ]))

(* I-cache geometry sweep: the simulator experiments of the TR version
   (Section 6): how cache capacity limits the code-growth techniques. *)
let icache_sweep ~scale =
  let w = find_workload ~vm:Vmbp_workloads.Forth "brew" in
  let techniques =
    [ Technique.plain; Technique.dynamic_super; Technique.dynamic_repl ]
  in
  let cpu_for kb =
    let icache =
      if kb = 0 then Icache.infinite
      else
        Icache.make_config ~size_bytes:(kb * 1024) ~line_bytes:32
          ~associativity:4
    in
    { cpu_celeron with Cpu_model.icache;
      Cpu_model.name = Printf.sprintf "celeron-%dk" kb }
  in
  grid ~rows:[ 4; 8; 16; 32; 64; 0 ] ~cols:techniques
    (fun kb t ->
      Par_runner.cell ~tag:"icache-sweep" ~scale ~cpu:(cpu_for kb)
        ~technique:t w)
    (table
       ~headers:("I-cache" :: List.map Technique.name techniques)
       (fun kb row ->
         (if kb = 0 then "infinite" else Printf.sprintf "%d KB" kb)
         :: List.map
              (cell_str (fun r ->
                   Printf.sprintf "%.2fM (%s miss)"
                     (r.Runner.result.Engine.cycles /. 1e6)
                     (Table.human_int
                        r.Runner.result.Engine.metrics.Metrics.icache_misses)))
              row))

(* Misprediction-penalty sensitivity: the paper's motivation scales with
   pipeline depth (10 cycles on the P3 era, 20 on Northwood, ~30 on
   Prescott). *)
let penalty_sweep ~scale =
  let w = find_workload ~vm:Vmbp_workloads.Forth "bench-gc" in
  let cpu_for penalty =
    { cpu_p4 with Cpu_model.mispredict_penalty = penalty;
      Cpu_model.name = Printf.sprintf "p4-%dcy" penalty }
  in
  grid ~rows:[ 5; 10; 20; 30; 40 ]
    ~cols:[ Technique.plain; Technique.with_static_super () ]
    (fun penalty t ->
      Par_runner.cell ~tag:"penalty-sweep" ~scale ~cpu:(cpu_for penalty)
        ~technique:t w)
    (table
       ~headers:
         [ "penalty (cycles)"; "plain"; "with static super"; "speedup" ]
       ~note:
         "\n(deeper pipelines make the techniques more valuable: the paper's\n\
          Prescott remark, Section 2.2)\n"
       (fun penalty row ->
         match List.filter_map ok_run row with
         | [ plain; best ] ->
             [
               string_of_int penalty;
               Printf.sprintf "%.2fM"
                 (plain.Runner.result.Engine.cycles /. 1e6);
               Printf.sprintf "%.2fM" (best.Runner.result.Engine.cycles /. 1e6);
               Table.f2 (Runner.speedup ~baseline:plain best);
             ]
         | _ -> [ string_of_int penalty; "fail"; "-"; "-" ]))

(* Static program characterisation: the structural differences Section 7.3
   uses to explain Forth-vs-JVM behaviour (block lengths, call density). *)
let program_stats ~scale =
  grid ~rows:Vmbp_workloads.all ~cols:[ Technique.dynamic_super ]
    (fun w technique ->
      Par_runner.cell ~tag:"program-stats" ~scale ~cpu:Cpu_model.ideal
        ~technique w)
    (table
       ~headers:
         [ "benchmark"; "slots"; "blocks"; "avg block len"; "exec super len";
           "calls"; "branches" ]
       ~note:"
(paper Section 7.3: Forth blocks are shorter -- many calls/returns --
     which is why static superinstructions pay off more on the JVM)
"
       (fun (w : Vmbp_workloads.t) row ->
         let loaded = w.Vmbp_workloads.load ~scale in
         (* quickened form, so quick instructions are characterised *)
         let p = Vmbp_workloads.quickened_program loaded in
         let bb = Vmbp_vm.Basic_block.analyze p in
         let n = Vmbp_vm.Program.length p in
         let nblocks = Array.length bb.Vmbp_vm.Basic_block.blocks in
         let calls = ref 0 and branches = ref 0 and returns = ref 0 in
         for i = 0 to n - 1 do
           match (Vmbp_vm.Program.instr_at p i).Vmbp_vm.Instr.branch with
           | Vmbp_vm.Instr.Call _ | Vmbp_vm.Instr.Indirect_call -> incr calls
           | Vmbp_vm.Instr.Cond_branch _ | Vmbp_vm.Instr.Uncond_branch _
           | Vmbp_vm.Instr.Indirect_branch ->
               incr branches
           | Vmbp_vm.Instr.Return -> incr returns
           | Vmbp_vm.Instr.Straight | Vmbp_vm.Instr.Stop -> ()
         done;
         (* executed superinstruction length: VM instructions per dispatch
            under within-block dynamic superinstructions (paper: ~3 for
            Forth, longer for the JVM) *)
         let super_len =
           match List.find_map ok_run row with
           | None -> "fail"
           | Some dsuper ->
               let dm = dsuper.Runner.result.Engine.metrics in
               Printf.sprintf "%.2f"
                 (float_of_int dm.Metrics.vm_instrs
                 /. float_of_int (max 1 dm.Metrics.dispatches))
         in
         [
           Printf.sprintf "%s/%s"
             (Vmbp_workloads.vm_name w.Vmbp_workloads.vm)
             w.Vmbp_workloads.name;
           string_of_int n;
           string_of_int nblocks;
           Printf.sprintf "%.2f" (float_of_int n /. float_of_int nblocks);
           super_len;
           Printf.sprintf "%.1f%%" (100. *. float_of_int !calls /. float_of_int n);
           Printf.sprintf "%.1f%%"
             (100. *. float_of_int (!branches + !returns) /. float_of_int n);
         ]))

let dispatch_ratio ~scale =
  grid
    ~rows:(Vmbp_workloads.forth @ Vmbp_workloads.jvm)
    ~cols:[ Technique.plain ]
    (fun w technique ->
      Par_runner.cell ~tag:"dispatch-ratio" ~scale ~cpu:cpu_p4 ~technique w)
    (table
       ~headers:[ "benchmark"; "native instrs"; "indirect branches"; "ratio" ]
       (fun (w : Vmbp_workloads.t) row ->
         let name =
           Printf.sprintf "%s/%s"
             (Vmbp_workloads.vm_name w.Vmbp_workloads.vm)
             w.Vmbp_workloads.name
         in
         match List.find_map ok_run row with
         | None -> [ name; "fail"; "-"; "-" ]
         | Some r ->
             let m = r.Runner.result.Engine.metrics in
             [
               name;
               Table.human_int m.Metrics.native_instrs;
               Table.human_int m.Metrics.indirect_branches;
               Printf.sprintf "%.1f%%"
                 (100. *. float_of_int m.Metrics.indirect_branches
                 /. float_of_int m.Metrics.native_instrs);
             ]))

(* ------------------------------------------------------------------ *)

(* [run] is [plan] run as one batch of its own. *)
let make ~id ~title ~paper_claim ~default_scale plan =
  {
    id;
    title;
    paper_claim;
    default_scale;
    plan;
    run = (fun ~scale -> run_plan (plan ~scale));
  }

let all =
  [
    make ~id:"table1" ~title:"Table I: BTB predictions on a small VM program"
      ~paper_claim:
        "switch dispatch mispredicts every dispatch of the loop; threaded \
         code mispredicts only A's branch (twice per iteration)"
      ~default_scale:1 (no_cells table1);
    make ~id:"table2" ~title:"Table II: replication fixes BTB predictions"
      ~paper_claim:"with two round-robin replicas of A, no steady-state misses"
      ~default_scale:1 (no_cells table2);
    make ~id:"table3" ~title:"Table III: bad static replication"
      ~paper_claim:
        "replicating B in A B A B A can increase mispredictions from 2 to 3 \
         per iteration"
      ~default_scale:1 (no_cells table3);
    make ~id:"table4" ~title:"Table IV: superinstructions fix BTB predictions"
      ~paper_claim:"combining A-B leaves every dispatch monomorphic"
      ~default_scale:1 (no_cells table4);
    make ~id:"table5"
      ~title:"Table V: base JVM vs other JVMs (comparators modelled)"
      ~paper_claim:
        "our base interpreter is close to Hotspot's interpreter and far \
         ahead of Kaffe's; JITs are several times faster"
      ~default_scale:1 table5;
    make ~id:"table6" ~title:"Table VI: Forth benchmark programs"
      ~paper_claim:"seven programs matching the Gforth suite's character"
      ~default_scale:1
      (no_cells (inventory Vmbp_workloads.Forth));
    make ~id:"table7" ~title:"Table VII: JVM benchmark programs"
      ~paper_claim:"seven programs matching SPECjvm98's character"
      ~default_scale:1
      (no_cells (inventory Vmbp_workloads.Jvm));
    make ~id:"fig7" ~title:"Figure 7: Gforth speedups on the Celeron-800"
      ~paper_claim:
        "dynamic beats static; combinations beat single techniques; code \
         growth hurts some benchmarks on the small I-cache"
      ~default_scale:2
      (render_speedups ~vm:Vmbp_workloads.Forth ~cpu:cpu_celeron);
    make ~id:"fig8" ~title:"Figure 8: Gforth speedups on the Pentium 4"
      ~paper_claim:
        "larger speedups than the Celeron (20-cycle penalty): up to ~4.5x \
         for with-static-super"
      ~default_scale:2
      (render_speedups ~vm:Vmbp_workloads.Forth ~cpu:cpu_p4);
    make ~id:"fig9" ~title:"Figure 9: JVM speedups on the Pentium 4"
      ~paper_claim:
        "same ordering as Gforth but smaller magnitudes (lower \
         dispatch-to-work ratio)"
      ~default_scale:2
      (render_speedups ~vm:Vmbp_workloads.Jvm ~cpu:cpu_p4);
    make ~id:"fig10"
      ~title:"Figure 10: performance counters, bench-gc (Forth, P4)"
      ~paper_claim:
        "plain/static-repl/dynamic-repl execute identical instructions; \
         mispredictions dominate plain's cycles"
      ~default_scale:2
      (render_counters ~vm:Vmbp_workloads.Forth ~workload:"bench-gc"
         ~cpu:cpu_p4);
    make ~id:"fig11" ~title:"Figure 11: performance counters, brew (Forth, P4)"
      ~paper_claim:"same shape on the largest Forth benchmark"
      ~default_scale:2
      (render_counters ~vm:Vmbp_workloads.Forth ~workload:"brew" ~cpu:cpu_p4);
    make ~id:"fig12" ~title:"Figure 12: performance counters, mpeg (JVM, P4)"
      ~paper_claim:
        "static super does comparatively better on the JVM (longer blocks)"
      ~default_scale:2
      (render_counters ~vm:Vmbp_workloads.Jvm ~workload:"mpeg" ~cpu:cpu_p4);
    make ~id:"fig13"
      ~title:"Figure 13: performance counters, compress (JVM, P4)"
      ~paper_claim:"dynamic repl's speedup comes entirely from mispredictions"
      ~default_scale:2
      (render_counters ~vm:Vmbp_workloads.Jvm ~workload:"compress"
         ~cpu:cpu_p4);
    make ~id:"fig14"
      ~title:
        "Figure 14: static replication/superinstruction mix, bench-gc \
         (Celeron)"
      ~paper_claim:
        "cycles fall with the total budget and flatten; mixes beat the \
         extreme points"
      ~default_scale:1
      (render_static_mix ~which:`Cycles ~vm:Vmbp_workloads.Forth
         ~workload:"bench-gc" ~cpu:cpu_celeron
         ~totals:[ 0; 25; 50; 100; 200; 400; 800; 1600 ]);
    make ~id:"fig15" ~title:"Figure 15: static mix cycles, mpeg (JVM, P4)"
      ~paper_claim:
        "for the JVM, superinstructions dominate: replicas at the expense \
         of superinstructions do not help"
      ~default_scale:1
      (render_static_mix ~which:`Cycles ~vm:Vmbp_workloads.Jvm
         ~workload:"mpeg" ~cpu:cpu_p4 ~totals:[ 0; 50; 100; 200; 300; 400 ]);
    make ~id:"fig16"
      ~title:"Figure 16: static mix mispredictions, mpeg (JVM, P4)"
      ~paper_claim:
        "small replica counts can increase mispredictions (polymorphic \
         hot instructions)"
      ~default_scale:1
      (render_static_mix ~which:`Mispredicts ~vm:Vmbp_workloads.Jvm
         ~workload:"mpeg" ~cpu:cpu_p4 ~totals:[ 0; 50; 100; 200; 300; 400 ]);
    make ~id:"table8"
      ~title:"Table VIII: run-time code of the dynamic schemes (JVM)"
      ~paper_claim:
        "dynamic super is compact; across-bb variants generate several \
         times more code"
      ~default_scale:2 table8;
    make ~id:"table9"
      ~title:"Table IX: across-bb vs native Forth compilers (modelled)"
      ~paper_claim:
        "the optimized interpreter lands within a small factor of simple \
         native compilers"
      ~default_scale:2 table9;
    make ~id:"table10"
      ~title:"Table X: JVM vs Kaffe/Hotspot (comparators modelled)"
      ~paper_claim:
        "w/static-across-bb beats Hotspot's interpreter; JITs remain \
         several times faster"
      ~default_scale:2 table10;
    make ~id:"btb-sweep" ~title:"Ablation: BTB size sweep (bench-gc, Celeron)"
      ~paper_claim:"capacity misses erode replication's benefit on small BTBs"
      ~default_scale:1 btb_sweep;
    make ~id:"predictors"
      ~title:"Ablation: predictor comparison (Section 8 related work)"
      ~paper_claim:
        "two-level predictors and the case block table fix switch dispatch \
         in hardware"
      ~default_scale:1 predictor_compare;
    make ~id:"replica-strategy"
      ~title:"Ablation: round-robin vs random replica selection"
      ~paper_claim:"round-robin selection beats random (Section 5.1)"
      ~default_scale:1 replica_strategy;
    make ~id:"parse-algo"
      ~title:"Ablation: greedy vs optimal superinstruction selection"
      ~paper_claim:
        "optimal parsing saves almost nothing over greedy (Section 5.1)"
      ~default_scale:1 parse_algo;
    make ~id:"residual-mispredicts"
      ~title:"Ablation: residual mispredictions under dynamic replication"
      ~paper_claim:
        "with replication, the remaining mispredicted dispatches follow \
         indirect VM-level transfers, mostly returns (Section 7.3)"
      ~default_scale:1 residual_mispredicts;
    make ~id:"icache-sweep"
      ~title:"Ablation: I-cache capacity sweep (brew, Celeron base)"
      ~paper_claim:
        "code growth from replication only hurts when the working set \
         outgrows the cache; dynamic super is insensitive (Section 7.4)"
      ~default_scale:1 icache_sweep;
    make ~id:"penalty-sweep"
      ~title:"Ablation: misprediction-penalty sensitivity (bench-gc, P4 base)"
      ~paper_claim:
        "speedups grow with pipeline depth: ~10 cycles on the P3, 20 on \
         Northwood, ~30 on Prescott (Section 2.2)"
      ~default_scale:1 penalty_sweep;
    make ~id:"program-stats" ~title:"Ablation: static program characterisation"
      ~paper_claim:
        "JVM basic blocks are longer than Forth's (fewer calls/returns), \
         explaining where static superinstructions pay off (Section 7.3)"
      ~default_scale:1 program_stats;
    make ~id:"subroutine-threading"
      ~title:"Ablation: subroutine threading (Berndl et al. 2005, Section 8)"
      ~paper_claim:
        "compiling VM code to native call sequences removes dispatch \
         indirect branches entirely, at call/return overhead on every \
         instruction; competitive with dynamic superinstructions"
      ~default_scale:1 subroutine_threading;
    make ~id:"dispatch-ratio"
      ~title:"Ablation: indirect-branch share of executed instructions"
      ~paper_claim:
        "Forth ~16.5% of retired instructions are indirect branches; JVM ~6%"
      ~default_scale:1 dispatch_ratio;
  ]

let find id = List.find_opt (fun e -> e.id = id) all

(* All the experiments' cells as one plan: each (workload, technique,
   scale) group is walked once, however many experiments share it. *)
let run_batch ?scale es =
  let plans =
    List.map
      (fun e ->
        (e, e.plan ~scale:(Option.value scale ~default:e.default_scale)))
      es
  in
  run_plan
    ( List.concat_map (fun (_, (cells, _)) -> cells) plans,
      fun results ->
        let rec render results = function
          | [] -> []
          | (e, (cells, f)) :: rest ->
              let mine, results = split_at (List.length cells) results in
              (e, f mine) :: render results rest
        in
        (render results plans, results) )
