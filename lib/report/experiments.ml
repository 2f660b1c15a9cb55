open Vmbp_core
open Vmbp_machine

type t = {
  id : string;
  title : string;
  paper_claim : string;
  default_scale : int;
  run : scale:int -> string;
}

let buf_add = Buffer.add_string

(* ------------------------------------------------------------------ *)
(* Shared computations.

   Every multi-run experiment builds its cell list up front and runs it
   through {!Par_runner.run_cells}: with --jobs N the grid spreads over N
   domains, and a trapped cell degrades to a "fail" table entry instead of
   aborting its siblings.  Cell lists are consumed strictly in input order,
   so the rendered tables are identical for every job count. *)

let variants_for = function
  | Vmbp_workloads.Forth -> Technique.paper_gforth_variants
  | Vmbp_workloads.Jvm -> Technique.paper_jvm_variants

let workloads_for = function
  | Vmbp_workloads.Forth -> Vmbp_workloads.forth
  | Vmbp_workloads.Jvm -> Vmbp_workloads.jvm

let ok_run (t : Par_runner.timed) =
  match t.Par_runner.outcome with Ok r -> Some r | Error _ -> None

(* Render one cell's value, or "fail" for an isolated failed run. *)
let cell_str f (t : Par_runner.timed) =
  match t.Par_runner.outcome with Ok r -> f r | Error _ -> "fail"

(* Split the flat, input-ordered result list back into the grid rows it was
   built from. *)
let rec chunks n = function
  | [] -> []
  | l ->
      let rec take k acc rest =
        if k = 0 then (List.rev acc, rest)
        else
          match rest with
          | x :: rest' -> take (k - 1) (x :: acc) rest'
          | [] -> invalid_arg "chunks: ragged result list"
      in
      let row, rest = take n [] l in
      row :: chunks n rest

let speedups ~scale ~vm ~cpu =
  let techniques = variants_for vm in
  let tag = Printf.sprintf "speedups/%s/%s" (Vmbp_workloads.vm_name vm)
      cpu.Cpu_model.name in
  let workloads = workloads_for vm in
  let cells =
    List.concat_map
      (fun w ->
        List.map
          (fun technique -> Par_runner.cell ~tag ~scale ~cpu ~technique w)
          techniques)
      workloads
  in
  List.map2
    (fun (w : Vmbp_workloads.t) row ->
      let runs =
        List.map2 (fun t r -> (t, r.Par_runner.outcome)) techniques row
      in
      let baseline =
        match List.find_opt (fun (t, _) -> t = Technique.Plain) runs with
        | Some (_, Ok r) -> Some r
        | Some (_, Error _) -> None
        | None -> (
            match runs with (_, Ok r) :: _ -> Some r | _ -> None)
      in
      ( w.Vmbp_workloads.name,
        List.map
          (fun (t, r) ->
            ( Technique.name t,
              match (baseline, r) with
              | Some baseline, Ok r -> Some (Runner.speedup ~baseline r)
              | _ -> None ))
          runs ))
    workloads
    (chunks (List.length techniques) (Par_runner.run_cells cells))

let metric_labels =
  [ "cycles"; "instrs"; "indirect branches"; "indirect mispredicted";
    "icache misses"; "miss cycles"; "code KB" ]

let counter_profile ~scale ~vm ~workload ~cpu =
  let w =
    match Vmbp_workloads.find ~vm workload with
    | Some w -> w
    | None -> invalid_arg ("unknown workload " ^ workload)
  in
  let techniques = variants_for vm in
  let results =
    Par_runner.run_cells
      (List.map
         (fun t ->
           Par_runner.cell ~tag:("counters/" ^ workload) ~scale ~cpu
             ~technique:t w)
         techniques)
  in
  (* A failed variant drops its row; the others still render. *)
  let runs =
    List.filter_map
      (fun (t : Par_runner.timed) ->
        Option.map (fun r -> (t.Par_runner.cell.Par_runner.technique, r))
          (ok_run t))
      results
  in
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
  if runs = [] then ([], metric_labels)
  else
    let plain =
      match List.find_opt (fun (t, _) -> t = Technique.Plain) runs with
      | Some (_, r) -> metrics r
      | None -> metrics (snd (List.hd runs))
    in
    let rows =
      List.map
        (fun (t, r) ->
          let vals = metrics r in
          let normalised =
            List.mapi
              (fun k v ->
                if k = 6 then v (* code KB stays raw *)
                else
                  let base = List.nth plain k in
                  if base = 0. then 0. else v /. base)
              vals
          in
          (Technique.name t, normalised))
        runs
    in
    (rows, metric_labels)

let static_mix ~scale ~vm ~workload ~cpu ~totals =
  let w =
    match Vmbp_workloads.find ~vm workload with
    | Some w -> w
    | None -> invalid_arg ("unknown workload " ^ workload)
  in
  let percents = [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ] in
  let specs =
    List.concat_map
      (fun total -> List.map (fun pct -> (total, pct)) percents)
      totals
  in
  let cells =
    List.map
      (fun (total, pct) ->
        let supers = total * pct / 100 in
        let replicas = total - supers in
        let technique =
          if total = 0 then Technique.Plain
          else
            Technique.Static
              (Technique.static_params ~replicas ~superinstrs:supers ())
        in
        Par_runner.cell ~tag:("static-mix/" ^ workload) ~scale ~cpu ~technique
          w)
      specs
  in
  let results = List.combine specs (Par_runner.run_cells cells) in
  List.map
    (fun row ->
      match row with
      | [] -> assert false
      | ((total, _), _) :: _ ->
          ( total,
            List.map
              (fun ((_, pct), t) ->
                match ok_run t with
                | Some r ->
                    ( pct,
                      r.Runner.result.Engine.cycles,
                      r.Runner.result.Engine.metrics.Metrics.mispredicts )
                | None -> (pct, Float.nan, 0))
              row ))
    (chunks (List.length percents) results)

(* ------------------------------------------------------------------ *)
(* Rendering helpers *)

let render_speedups ~scale ~vm ~cpu =
  let data = speedups ~scale ~vm ~cpu in
  let headers =
    "benchmark" :: List.map Technique.name (variants_for vm)
  in
  let rows =
    List.map
      (fun (wname, cells) ->
        wname
        :: List.map
             (fun (_, s) ->
               match s with Some s -> Table.f2 s | None -> "fail")
             cells)
      data
  in
  Table.render ~headers ~rows

let render_counters ~scale ~vm ~workload ~cpu =
  let rows, labels = counter_profile ~scale ~vm ~workload ~cpu in
  Table.render
    ~headers:("variant" :: labels)
    ~rows:
      (List.map
         (fun (name, vals) -> name :: List.map Table.f2 vals)
         rows)

let render_static_mix ~which ~scale ~vm ~workload ~cpu ~totals =
  let data = static_mix ~scale ~vm ~workload ~cpu ~totals in
  let headers =
    "total \\ %super"
    :: List.map string_of_int [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ]
  in
  let rows =
    List.map
      (fun (total, series) ->
        string_of_int total
        :: List.map
             (fun (_, cycles, mispredicts) ->
               match which with
               | `Cycles -> Printf.sprintf "%.2fM" (cycles /. 1e6)
               | `Mispredicts -> Table.human_int mispredicts)
             series)
      data
  in
  Table.render ~headers ~rows

(* ------------------------------------------------------------------ *)
(* Worked-example tables (I-IV) *)

let toy_trace ~technique ?profile ~program ~skip ~take () =
  let state = Vmbp_toyvm.Toy_vm.create_state ~counters:(Array.make 16 50) () in
  Dispatch_trace.trace ~technique ?profile ~program
    ~exec:(Vmbp_toyvm.Toy_vm.exec state) ~skip ~take ()

let table1 ~scale:_ =
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

let table2 ~scale:_ =
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

let table3 ~scale:_ =
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

let table4 ~scale:_ =
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

let cpu_p4 = Cpu_model.pentium4_northwood
let cpu_celeron = Cpu_model.celeron_800

let seconds_of_cycles cycles cpu =
  cycles /. (float_of_int cpu.Cpu_model.mhz *. 1e6)

let table5 ~scale =
  let results =
    Par_runner.run_cells
      (List.map
         (fun w ->
           Par_runner.cell ~tag:"table5" ~scale ~cpu:cpu_p4
             ~technique:Technique.plain w)
         Vmbp_workloads.jvm)
  in
  let rows =
    List.map2
      (fun (w : Vmbp_workloads.t) timed ->
        match ok_run timed with
        | None -> [ w.Vmbp_workloads.name; "fail"; "-"; "-"; "-"; "-" ]
        | Some plain ->
            let slots =
              Vmbp_vm.Program.length
                (w.Vmbp_workloads.load ~scale).Vmbp_workloads.program
            in
            let model m =
              Printf.sprintf "%.1f"
                (1e3
                *. seconds_of_cycles
                     (Native_model.cycles m ~cpu:cpu_p4 ~costs:Costs.default
                        ~plain:plain.Runner.result ~slots)
                     cpu_p4)
            in
            [
              w.Vmbp_workloads.name;
              Printf.sprintf "%.1f" (1e3 *. plain.Runner.result.Engine.seconds);
              model Native_model.hotspot_interp;
              model Native_model.kaffe_interp;
              model Native_model.hotspot_mixed;
              model Native_model.kaffe_jit;
            ])
      Vmbp_workloads.jvm results
  in
  Table.render
    ~headers:
      [ "benchmark"; "our base (ms)"; "Hotspot int"; "Kaffe int";
        "Hotspot mixed"; "Kaffe JIT" ]
    ~rows
  ^ "\n(all comparator columns are documented analytic models; see DESIGN.md)\n"

let inventory vm =
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
  let cells =
    List.concat_map
      (fun w ->
        List.map
          (fun (_, t) ->
            Par_runner.cell ~tag:"table8" ~scale ~cpu:cpu_p4 ~technique:t w)
          schemes)
      Vmbp_workloads.jvm
  in
  let rows =
    List.map2
      (fun (w : Vmbp_workloads.t) row ->
        w.Vmbp_workloads.name
        :: List.map
             (cell_str (fun r ->
                  Printf.sprintf "%.2f"
                    (float_of_int
                       r.Runner.result.Engine.metrics.Metrics.code_bytes
                    /. 1024. /. 1024.)))
             row)
      Vmbp_workloads.jvm
      (chunks (List.length schemes) (Par_runner.run_cells cells))
  in
  Table.render
    ~headers:
      ("benchmark" :: List.map (fun (n, _) -> n ^ " (MB)") schemes)
    ~rows

let table9 ~scale =
  let names = [ "tscp"; "brainless"; "brew" ] in
  let workloads =
    List.map
      (fun name ->
        Option.get (Vmbp_workloads.find ~vm:Vmbp_workloads.Forth name))
      names
  in
  let cells =
    List.concat_map
      (fun w ->
        List.map
          (fun t ->
            Par_runner.cell ~tag:"table9" ~scale ~cpu:cpu_p4 ~technique:t w)
          [ Technique.plain; Technique.across_bb ])
      workloads
  in
  let rows =
    List.map2
      (fun (w : Vmbp_workloads.t) row ->
        match List.filter_map ok_run row with
        | [ plain; across ] ->
            let slots =
              Vmbp_vm.Program.length
                (w.Vmbp_workloads.load ~scale).Vmbp_workloads.program
            in
            let model m =
              plain.Runner.result.Engine.cycles
              /. Native_model.cycles m ~cpu:cpu_p4 ~costs:Costs.default
                   ~plain:plain.Runner.result ~slots
            in
            [
              w.Vmbp_workloads.name;
              Table.f2 (Runner.speedup ~baseline:plain across);
              Table.f2 (model Native_model.bigforth);
              Table.f2 (model Native_model.iforth);
            ]
        | _ -> [ w.Vmbp_workloads.name; "fail"; "-"; "-" ])
      workloads
      (chunks 2 (Par_runner.run_cells cells))
  in
  Table.render
    ~headers:[ "benchmark"; "across bb"; "bigForth (model)"; "iForth (model)" ]
    ~rows
  ^ "\n(speedups over plain; native compilers are documented models)\n"

let table10 ~scale =
  let cells =
    List.concat_map
      (fun w ->
        List.map
          (fun t ->
            Par_runner.cell ~tag:"table10" ~scale ~cpu:cpu_p4 ~technique:t w)
          [ Technique.plain; Technique.with_static_across_bb () ])
      Vmbp_workloads.jvm
  in
  let rows =
    List.map2
      (fun (w : Vmbp_workloads.t) row ->
        match List.filter_map ok_run row with
        | [ plain; ours ] ->
            let slots =
              Vmbp_vm.Program.length
                (w.Vmbp_workloads.load ~scale).Vmbp_workloads.program
            in
            let model m =
              plain.Runner.result.Engine.cycles
              /. Native_model.cycles m ~cpu:cpu_p4 ~costs:Costs.default
                   ~plain:plain.Runner.result ~slots
            in
            [
              w.Vmbp_workloads.name;
              Table.f2 (Runner.speedup ~baseline:plain ours);
              Table.f2 (model Native_model.kaffe_jit);
              Table.f2 (model Native_model.hotspot_interp);
              Table.f2 (model Native_model.hotspot_mixed);
            ]
        | _ -> [ w.Vmbp_workloads.name; "fail"; "-"; "-"; "-" ])
      Vmbp_workloads.jvm
      (chunks 2 (Par_runner.run_cells cells))
  in
  Table.render
    ~headers:
      [ "benchmark"; "w/static across bb"; "Kaffe JIT"; "Hotspot int";
        "Hotspot mixed" ]
    ~rows
  ^ "\n(speedups over plain; JVM comparators are documented models)\n"

(* ------------------------------------------------------------------ *)
(* Ablations *)

let btb_sweep ~scale =
  let w = Option.get (Vmbp_workloads.find ~vm:Vmbp_workloads.Forth "bench-gc") in
  let sizes = [ 64; 128; 256; 512; 1024; 2048; 4096; 0 ] in
  let techniques =
    [ Technique.plain; Technique.static_repl (); Technique.dynamic_repl ]
  in
  let cells =
    List.concat_map
      (fun entries ->
        List.map
          (fun t ->
            let predictor =
              if entries = 0 then Predictor.Btb Vmbp_machine.Btb.ideal
              else
                Predictor.Btb
                  (Vmbp_machine.Btb.classic ~entries ~associativity:4)
            in
            Par_runner.cell ~tag:"btb-sweep" ~scale ~predictor
              ~cpu:cpu_celeron ~technique:t w)
          techniques)
      sizes
  in
  let rows =
    List.map2
      (fun entries row ->
        let label = if entries = 0 then "unbounded" else string_of_int entries in
        label
        :: List.map
             (cell_str (fun r ->
                  Printf.sprintf "%.1f%%"
                    (100.
                    *. Metrics.misprediction_rate
                         r.Runner.result.Engine.metrics)))
             row)
      sizes
      (chunks (List.length techniques) (Par_runner.run_cells cells))
  in
  Table.render
    ~headers:("BTB entries" :: List.map Technique.name techniques)
    ~rows

let predictor_compare ~scale =
  let w = Option.get (Vmbp_workloads.find ~vm:Vmbp_workloads.Forth "bench-gc") in
  let predictors =
    [
      Predictor.Btb (Vmbp_machine.Btb.classic ~entries:512 ~associativity:4);
      Predictor.Btb (Vmbp_machine.Btb.with_counters ~entries:512 ~associativity:4);
      Predictor.Two_level Vmbp_machine.Two_level.default;
      Predictor.Case_block 256;
      Predictor.Perfect;
    ]
  in
  let techniques = [ Technique.switch; Technique.plain; Technique.dynamic_super ] in
  let cells =
    List.concat_map
      (fun p ->
        List.map
          (fun t ->
            Par_runner.cell ~tag:"predictors" ~scale ~predictor:p
              ~cpu:cpu_celeron ~technique:t w)
          techniques)
      predictors
  in
  let rows =
    List.map2
      (fun p row ->
        Predictor.kind_name p
        :: List.map
             (cell_str (fun r ->
                  Printf.sprintf "%.1f%%"
                    (100.
                    *. Metrics.misprediction_rate
                         r.Runner.result.Engine.metrics)))
             row)
      predictors
      (chunks (List.length techniques) (Par_runner.run_cells cells))
  in
  Table.render
    ~headers:("predictor" :: List.map Technique.name techniques)
    ~rows

let replica_strategy ~scale =
  let technique_of strategy =
    Technique.Static (Technique.static_params ~replicas:400 ~strategy ())
  in
  let cells =
    List.concat_map
      (fun w ->
        List.map
          (fun s ->
            Par_runner.cell ~tag:"replica-strategy" ~scale ~cpu:cpu_celeron
              ~technique:(technique_of s) w)
          [ Technique.Round_robin; Technique.Random 42 ])
      Vmbp_workloads.forth
  in
  let rows =
    List.map2
      (fun (w : Vmbp_workloads.t) row ->
        match List.filter_map ok_run row with
        | [ rr; rand ] ->
            let rr = rr.Runner.result.Engine.cycles in
            let rand = rand.Runner.result.Engine.cycles in
            [ w.Vmbp_workloads.name; Printf.sprintf "%.2fM" (rr /. 1e6);
              Printf.sprintf "%.2fM" (rand /. 1e6); Table.f2 (rand /. rr) ]
        | _ -> [ w.Vmbp_workloads.name; "fail"; "-"; "-" ])
      Vmbp_workloads.forth
      (chunks 2 (Par_runner.run_cells cells))
  in
  Table.render
    ~headers:[ "benchmark"; "round-robin"; "random"; "random/rr" ]
    ~rows

let parse_algo ~scale =
  let workloads = Vmbp_workloads.forth @ Vmbp_workloads.jvm in
  let technique_of parse =
    Technique.Static (Technique.static_params ~superinstrs:400 ~parse ())
  in
  let cells =
    List.concat_map
      (fun w ->
        List.map
          (fun p ->
            Par_runner.cell ~tag:"parse-algo" ~scale ~cpu:cpu_p4
              ~technique:(technique_of p) w)
          [ Technique.Greedy; Technique.Optimal ])
      workloads
  in
  let rows =
    List.map2
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
        | _ -> [ w.Vmbp_workloads.name; "fail"; "-"; "-" ])
      workloads
      (chunks 2 (Par_runner.run_cells cells))
  in
  Table.render
    ~headers:
      [ "benchmark"; "greedy dispatches"; "optimal dispatches";
        "greedy/optimal cycles" ]
    ~rows

let subroutine_threading ~scale =
  let techniques =
    [ Technique.plain; Technique.dynamic_super; Technique.across_bb;
      Technique.subroutine ]
  in
  let cells =
    List.concat_map
      (fun w ->
        List.map
          (fun t ->
            Par_runner.cell ~tag:"subroutine-threading" ~scale ~cpu:cpu_p4
              ~technique:t w)
          techniques)
      Vmbp_workloads.forth
  in
  let rows =
    List.map2
      (fun (w : Vmbp_workloads.t) row ->
        (* Plain is the first column; its run doubles as the baseline. *)
        let baseline =
          match row with
          | b :: _ -> ok_run b
          | [] -> None
        in
        w.Vmbp_workloads.name
        :: List.map
             (fun timed ->
               match (baseline, ok_run timed) with
               | Some baseline, Some r ->
                   Printf.sprintf "%s (%s mp)"
                     (Table.f2 (Runner.speedup ~baseline r))
                     (Table.human_int
                        r.Runner.result.Engine.metrics.Metrics.mispredicts)
               | _ -> "fail")
             row)
      Vmbp_workloads.forth
      (chunks (List.length techniques) (Par_runner.run_cells cells))
  in
  Table.render
    ~headers:("benchmark" :: List.map Technique.name techniques)
    ~rows

(* Residual mispredictions under dynamic replication: the paper's
   simulations attribute them to indirect VM branches, mostly returns. *)
let residual_mispredicts ~scale =
  let results =
    Par_runner.run_cells
      (List.map
         (fun w ->
           Par_runner.cell ~tag:"residual-mispredicts" ~scale
             ~cpu:Cpu_model.ideal ~technique:Technique.dynamic_repl w)
         Vmbp_workloads.forth)
  in
  let rows =
    List.map2
      (fun (w : Vmbp_workloads.t) timed ->
        match ok_run timed with
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
            ])
      Vmbp_workloads.forth results
  in
  Table.render
    ~headers:
      [ "benchmark"; "mispredicts"; "at VM control transfers"; "share" ]
    ~rows
  ^ "\n(unbounded BTB, so no capacity/conflict noise: what remains after\n\
     dynamic replication follows VM branches, calls and returns; the rest\n\
     are compulsory first-execution misses of the fresh copies)\n"

(* I-cache geometry sweep: the simulator experiments of the TR version
   (Section 6): how cache capacity limits the code-growth techniques. *)
let icache_sweep ~scale =
  let w =
    match Vmbp_workloads.find ~vm:Vmbp_workloads.Forth "brew" with
    | Some w -> w
    | None -> assert false
  in
  let techniques =
    [ Technique.plain; Technique.dynamic_super; Technique.dynamic_repl ]
  in
  let sizes = [ 4; 8; 16; 32; 64; 0 ] in
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
  let cells =
    List.concat_map
      (fun kb ->
        List.map
          (fun t ->
            Par_runner.cell ~tag:"icache-sweep" ~scale ~cpu:(cpu_for kb)
              ~technique:t w)
          techniques)
      sizes
  in
  let rows =
    List.map2
      (fun kb row ->
        (if kb = 0 then "infinite" else Printf.sprintf "%d KB" kb)
        :: List.map
             (cell_str (fun r ->
                  Printf.sprintf "%.2fM (%s miss)"
                    (r.Runner.result.Engine.cycles /. 1e6)
                    (Table.human_int
                       r.Runner.result.Engine.metrics.Metrics.icache_misses)))
             row)
      sizes
      (chunks (List.length techniques) (Par_runner.run_cells cells))
  in
  Table.render
    ~headers:("I-cache" :: List.map Technique.name techniques)
    ~rows

(* Misprediction-penalty sensitivity: the paper's motivation scales with
   pipeline depth (10 cycles on the P3 era, 20 on Northwood, ~30 on
   Prescott). *)
let penalty_sweep ~scale =
  let w =
    match Vmbp_workloads.find ~vm:Vmbp_workloads.Forth "bench-gc" with
    | Some w -> w
    | None -> assert false
  in
  let penalties = [ 5; 10; 20; 30; 40 ] in
  let cpu_for penalty =
    { cpu_p4 with Cpu_model.mispredict_penalty = penalty;
      Cpu_model.name = Printf.sprintf "p4-%dcy" penalty }
  in
  let cells =
    List.concat_map
      (fun penalty ->
        List.map
          (fun t ->
            Par_runner.cell ~tag:"penalty-sweep" ~scale ~cpu:(cpu_for penalty)
              ~technique:t w)
          [ Technique.plain; Technique.with_static_super () ])
      penalties
  in
  let rows =
    List.map2
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
        | _ -> [ string_of_int penalty; "fail"; "-"; "-" ])
      penalties
      (chunks 2 (Par_runner.run_cells cells))
  in
  Table.render
    ~headers:
      [ "penalty (cycles)"; "plain"; "with static super"; "speedup" ]
    ~rows
  ^ "\n(deeper pipelines make the techniques more valuable: the paper's\n\
     Prescott remark, Section 2.2)\n"

(* Static program characterisation: the structural differences Section 7.3
   uses to explain Forth-vs-JVM behaviour (block lengths, call density). *)
let program_stats ~scale =
  let dsuper_runs =
    Par_runner.run_cells
      (List.map
         (fun w ->
           Par_runner.cell ~tag:"program-stats" ~scale ~cpu:Cpu_model.ideal
             ~technique:Technique.dynamic_super w)
         Vmbp_workloads.all)
  in
  let rows =
    List.map2
      (fun (w : Vmbp_workloads.t) dsuper_timed ->
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
          match ok_run dsuper_timed with
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
        ])
      Vmbp_workloads.all dsuper_runs
  in
  Table.render
    ~headers:
      [ "benchmark"; "slots"; "blocks"; "avg block len"; "exec super len";
        "calls"; "branches" ]
    ~rows
  ^ "
(paper Section 7.3: Forth blocks are shorter -- many calls/returns --
     which is why static superinstructions pay off more on the JVM)
"

let dispatch_ratio ~scale =
  let workloads = Vmbp_workloads.forth @ Vmbp_workloads.jvm in
  let results =
    Par_runner.run_cells
      (List.map
         (fun w ->
           Par_runner.cell ~tag:"dispatch-ratio" ~scale ~cpu:cpu_p4
             ~technique:Technique.plain w)
         workloads)
  in
  let rows =
    List.map2
      (fun (w : Vmbp_workloads.t) timed ->
        let name =
          Printf.sprintf "%s/%s"
            (Vmbp_workloads.vm_name w.Vmbp_workloads.vm)
            w.Vmbp_workloads.name
        in
        match ok_run timed with
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
            ])
      workloads results
  in
  Table.render
    ~headers:[ "benchmark"; "native instrs"; "indirect branches"; "ratio" ]
    ~rows

(* ------------------------------------------------------------------ *)

let all =
  [
    {
      id = "table1";
      title = "Table I: BTB predictions on a small VM program";
      paper_claim =
        "switch dispatch mispredicts every dispatch of the loop; threaded \
         code mispredicts only A's branch (twice per iteration)";
      default_scale = 1;
      run = table1;
    };
    {
      id = "table2";
      title = "Table II: replication fixes BTB predictions";
      paper_claim = "with two round-robin replicas of A, no steady-state misses";
      default_scale = 1;
      run = table2;
    };
    {
      id = "table3";
      title = "Table III: bad static replication";
      paper_claim =
        "replicating B in A B A B A can increase mispredictions from 2 to 3 \
         per iteration";
      default_scale = 1;
      run = table3;
    };
    {
      id = "table4";
      title = "Table IV: superinstructions fix BTB predictions";
      paper_claim = "combining A-B leaves every dispatch monomorphic";
      default_scale = 1;
      run = table4;
    };
    {
      id = "table5";
      title = "Table V: base JVM vs other JVMs (comparators modelled)";
      paper_claim =
        "our base interpreter is close to Hotspot's interpreter and far \
         ahead of Kaffe's; JITs are several times faster";
      default_scale = 1;
      run = table5;
    };
    {
      id = "table6";
      title = "Table VI: Forth benchmark programs";
      paper_claim = "seven programs matching the Gforth suite's character";
      default_scale = 1;
      run = (fun ~scale:_ -> inventory Vmbp_workloads.Forth);
    };
    {
      id = "table7";
      title = "Table VII: JVM benchmark programs";
      paper_claim = "seven programs matching SPECjvm98's character";
      default_scale = 1;
      run = (fun ~scale:_ -> inventory Vmbp_workloads.Jvm);
    };
    {
      id = "fig7";
      title = "Figure 7: Gforth speedups on the Celeron-800";
      paper_claim =
        "dynamic beats static; combinations beat single techniques; code \
         growth hurts some benchmarks on the small I-cache";
      default_scale = 2;
      run = (fun ~scale -> render_speedups ~scale ~vm:Vmbp_workloads.Forth ~cpu:cpu_celeron);
    };
    {
      id = "fig8";
      title = "Figure 8: Gforth speedups on the Pentium 4";
      paper_claim =
        "larger speedups than the Celeron (20-cycle penalty): up to ~4.5x \
         for with-static-super";
      default_scale = 2;
      run = (fun ~scale -> render_speedups ~scale ~vm:Vmbp_workloads.Forth ~cpu:cpu_p4);
    };
    {
      id = "fig9";
      title = "Figure 9: JVM speedups on the Pentium 4";
      paper_claim =
        "same ordering as Gforth but smaller magnitudes (lower \
         dispatch-to-work ratio)";
      default_scale = 2;
      run = (fun ~scale -> render_speedups ~scale ~vm:Vmbp_workloads.Jvm ~cpu:cpu_p4);
    };
    {
      id = "fig10";
      title = "Figure 10: performance counters, bench-gc (Forth, P4)";
      paper_claim =
        "plain/static-repl/dynamic-repl execute identical instructions; \
         mispredictions dominate plain's cycles";
      default_scale = 2;
      run =
        (fun ~scale ->
          render_counters ~scale ~vm:Vmbp_workloads.Forth ~workload:"bench-gc"
            ~cpu:cpu_p4);
    };
    {
      id = "fig11";
      title = "Figure 11: performance counters, brew (Forth, P4)";
      paper_claim = "same shape on the largest Forth benchmark";
      default_scale = 2;
      run =
        (fun ~scale ->
          render_counters ~scale ~vm:Vmbp_workloads.Forth ~workload:"brew"
            ~cpu:cpu_p4);
    };
    {
      id = "fig12";
      title = "Figure 12: performance counters, mpeg (JVM, P4)";
      paper_claim =
        "static super does comparatively better on the JVM (longer blocks)";
      default_scale = 2;
      run =
        (fun ~scale ->
          render_counters ~scale ~vm:Vmbp_workloads.Jvm ~workload:"mpeg" ~cpu:cpu_p4);
    };
    {
      id = "fig13";
      title = "Figure 13: performance counters, compress (JVM, P4)";
      paper_claim =
        "dynamic repl's speedup comes entirely from mispredictions";
      default_scale = 2;
      run =
        (fun ~scale ->
          render_counters ~scale ~vm:Vmbp_workloads.Jvm ~workload:"compress"
            ~cpu:cpu_p4);
    };
    {
      id = "fig14";
      title = "Figure 14: static replication/superinstruction mix, bench-gc (Celeron)";
      paper_claim =
        "cycles fall with the total budget and flatten; mixes beat the \
         extreme points";
      default_scale = 1;
      run =
        (fun ~scale ->
          render_static_mix ~which:`Cycles ~scale ~vm:Vmbp_workloads.Forth
            ~workload:"bench-gc" ~cpu:cpu_celeron
            ~totals:[ 0; 25; 50; 100; 200; 400; 800; 1600 ]);
    };
    {
      id = "fig15";
      title = "Figure 15: static mix cycles, mpeg (JVM, P4)";
      paper_claim =
        "for the JVM, superinstructions dominate: replicas at the expense \
         of superinstructions do not help";
      default_scale = 1;
      run =
        (fun ~scale ->
          render_static_mix ~which:`Cycles ~scale ~vm:Vmbp_workloads.Jvm
            ~workload:"mpeg" ~cpu:cpu_p4
            ~totals:[ 0; 50; 100; 200; 300; 400 ]);
    };
    {
      id = "fig16";
      title = "Figure 16: static mix mispredictions, mpeg (JVM, P4)";
      paper_claim =
        "small replica counts can increase mispredictions (polymorphic \
         hot instructions)";
      default_scale = 1;
      run =
        (fun ~scale ->
          render_static_mix ~which:`Mispredicts ~scale ~vm:Vmbp_workloads.Jvm
            ~workload:"mpeg" ~cpu:cpu_p4
            ~totals:[ 0; 50; 100; 200; 300; 400 ]);
    };
    {
      id = "table8";
      title = "Table VIII: run-time code of the dynamic schemes (JVM)";
      paper_claim =
        "dynamic super is compact; across-bb variants generate several \
         times more code";
      default_scale = 2;
      run = table8;
    };
    {
      id = "table9";
      title = "Table IX: across-bb vs native Forth compilers (modelled)";
      paper_claim =
        "the optimized interpreter lands within a small factor of simple \
         native compilers";
      default_scale = 2;
      run = table9;
    };
    {
      id = "table10";
      title = "Table X: JVM vs Kaffe/Hotspot (comparators modelled)";
      paper_claim =
        "w/static-across-bb beats Hotspot's interpreter; JITs remain \
         several times faster";
      default_scale = 2;
      run = table10;
    };
    {
      id = "btb-sweep";
      title = "Ablation: BTB size sweep (bench-gc, Celeron)";
      paper_claim =
        "capacity misses erode replication's benefit on small BTBs";
      default_scale = 1;
      run = btb_sweep;
    };
    {
      id = "predictors";
      title = "Ablation: predictor comparison (Section 8 related work)";
      paper_claim =
        "two-level predictors and the case block table fix switch dispatch \
         in hardware";
      default_scale = 1;
      run = predictor_compare;
    };
    {
      id = "replica-strategy";
      title = "Ablation: round-robin vs random replica selection";
      paper_claim = "round-robin selection beats random (Section 5.1)";
      default_scale = 1;
      run = replica_strategy;
    };
    {
      id = "parse-algo";
      title = "Ablation: greedy vs optimal superinstruction selection";
      paper_claim =
        "optimal parsing saves almost nothing over greedy (Section 5.1)";
      default_scale = 1;
      run = parse_algo;
    };
    {
      id = "residual-mispredicts";
      title = "Ablation: residual mispredictions under dynamic replication";
      paper_claim =
        "with replication, the remaining mispredicted dispatches follow \
         indirect VM-level transfers, mostly returns (Section 7.3)";
      default_scale = 1;
      run = residual_mispredicts;
    };
    {
      id = "icache-sweep";
      title = "Ablation: I-cache capacity sweep (brew, Celeron base)";
      paper_claim =
        "code growth from replication only hurts when the working set \
         outgrows the cache; dynamic super is insensitive (Section 7.4)";
      default_scale = 1;
      run = icache_sweep;
    };
    {
      id = "penalty-sweep";
      title = "Ablation: misprediction-penalty sensitivity (bench-gc, P4 base)";
      paper_claim =
        "speedups grow with pipeline depth: ~10 cycles on the P3, 20 on \
         Northwood, ~30 on Prescott (Section 2.2)";
      default_scale = 1;
      run = penalty_sweep;
    };
    {
      id = "program-stats";
      title = "Ablation: static program characterisation";
      paper_claim =
        "JVM basic blocks are longer than Forth's (fewer calls/returns), \
         explaining where static superinstructions pay off (Section 7.3)";
      default_scale = 1;
      run = program_stats;
    };
    {
      id = "subroutine-threading";
      title = "Ablation: subroutine threading (Berndl et al. 2005, Section 8)";
      paper_claim =
        "compiling VM code to native call sequences removes dispatch \
         indirect branches entirely, at call/return overhead on every \
         instruction; competitive with dynamic superinstructions";
      default_scale = 1;
      run = subroutine_threading;
    };
    {
      id = "dispatch-ratio";
      title = "Ablation: indirect-branch share of executed instructions";
      paper_claim =
        "Forth ~16.5% of retired instructions are indirect branches; JVM ~6%";
      default_scale = 1;
      run = dispatch_ratio;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
