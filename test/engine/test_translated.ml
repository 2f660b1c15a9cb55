(* Differential tests for the three ways a run reaches the simulators.

   A live run of the interpreter loop ([Engine.run_events]) executes the
   VM semantics and records the run's control path ([Vm_path]).  Driving
   the same loop with that path instead of the semantics must reproduce
   the live run exactly: same event stream into the sink, same
   deterministic metrics, same steps/trap reporting -- across every
   technique of the paper grid, across trap paths (fuel exhaustion, pc
   escape, semantic traps), and across real-VM workloads.  The "walk"
   group runs the same cases as a walk of the path ([Path_walk]) against
   the layout's translation, which emits no events: its deterministic
   counters, and what it counts on a set of predictors and I-caches, must
   equal the live run's, and one walk over many configurations must equal
   one walk per configuration.  The "full-run" group prices walks on real
   CPU models against [Engine.run], and a last group checks the
   translation machinery itself: a walk's incremental re-translation
   after quickening leaves the translation equal to a from-scratch decode
   of the mutated layout. *)

open Vmbp_machine
open Vmbp_core
module Program = Vmbp_vm.Program
module Profile = Vmbp_vm.Profile
module Control = Vmbp_vm.Control
module T = Vmbp_toyvm.Toy_vm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Event capture *)

type event =
  | Dispatch of { branch : int; target : int; opcode : int; vm_transfer : bool }
  | Fetch of { addr : int; bytes : int; opcode : int }

let capture () =
  let events = ref [] in
  let sink =
    {
      Engine.on_dispatch =
        (fun ~branch ~target ~opcode ~vm_transfer ->
          events := Dispatch { branch; target; opcode; vm_transfer } :: !events);
      on_fetch =
        (fun ~addr ~bytes ~opcode ->
          events := Fetch { addr; bytes; opcode } :: !events);
    }
  in
  (sink, fun () -> List.rev !events)

type stream = {
  steps : int;
  trapped : string option;
  output : string;  (* the toy VM's checksum, or a real VM's output *)
  metrics : Metrics.t;
  events : event list option;  (* [None] for a walk, which emits none *)
  sims : int list;  (* what [walk_kinds] and [walk_icaches] counted *)
  path : Vm_path.t option;
      (* the control path a [Live] run recorded, if it kept one *)
}

(* The simulator configurations every stream is measured on: a live run
   feeds its events through fresh ones, a walk drives them itself. *)
let walk_kinds =
  [
    Predictor.Btb (Btb.classic ~entries:64 ~associativity:2);
    Predictor.Btb (Btb.with_counters ~entries:32 ~associativity:1);
    Predictor.Btb Btb.ideal;
    Predictor.Two_level Two_level.default;
    Predictor.Case_block 16;
    Predictor.Perfect;
    Predictor.Never;
  ]

let walk_icaches =
  [
    Icache.make_config ~size_bytes:512 ~line_bytes:32 ~associativity:2;
    Icache.make_config ~size_bytes:4096 ~line_bytes:64 ~associativity:4;
    (* 6 sets, [mod]-indexed, sharing its line columns with the first *)
    Icache.make_config ~size_bytes:384 ~line_bytes:32 ~associativity:2;
    Icache.infinite;
  ]

(* Per predictor its mispredictions and VM-transfer subset, then per
   I-cache its fetches and misses. *)
let sims_of_events events =
  let preds = List.map (fun k -> (Predictor.create k, ref 0, ref 0)) walk_kinds in
  let ics = List.map (fun c -> (Icache.create c, ref 0, ref 0)) walk_icaches in
  List.iter
    (function
      | Dispatch { branch; target; opcode; vm_transfer } ->
          List.iter
            (fun (p, m, v) ->
              if not (Predictor.access p ~branch ~target ~opcode) then begin
                incr m;
                if vm_transfer then incr v
              end)
            preds
      | Fetch { addr; bytes; _ } ->
          List.iter
            (fun (ic, h, m) -> Icache.fetch ic ~addr ~bytes ~hits:h ~misses:m)
            ics)
    events;
  List.concat_map (fun (_, m, v) -> [ !m; !v ]) preds
  @ List.concat_map (fun (_, h, m) -> [ !h + !m; !m ]) ics

let sims_of_walk (c : Path_walk.counts) =
  List.concat
    (List.mapi
       (fun j _ ->
         [ c.Path_walk.mispredicts.(j); c.Path_walk.vm_branch_mispredicts.(j) ])
       walk_kinds)
  @ List.concat
      (List.mapi
         (fun j _ ->
           [ c.Path_walk.icache_fetches.(j); c.Path_walk.icache_misses.(j) ])
         walk_icaches)

let walk ?fuel ~path ~layout () =
  Path_walk.walk ?fuel ~path ~layout
    ~predictors:(Array.of_list (List.map Predictor.create walk_kinds))
    ~icaches:(Array.of_list (List.map Icache.create walk_icaches))
    ()

(* How a run executes the semantics: live through the interpreter loop
   (recording the control path on the side), through the same loop driven
   by a recorded path, or as a walk of a recorded path ({!Path_walk}); the
   last two report the output their recording run ended with. *)
type drive = Live | Replayed of Vm_path.t | Walked of Vm_path.t

(* Run [exec] over [layout] the way [drive] selects; [output] reads the
   live session's output afterwards. *)
let run_drive ~drive ?fuel ~layout ~exec ~output () =
  let m = Metrics.create () in
  let sink, events = capture () in
  let slots = Program.length layout.Code_layout.program in
  let recorder, recording = Vm_path.recorder ~slots exec in
  let loop exec = Engine.run_events ?fuel ~metrics:m ~layout ~exec ~sink () in
  let walked = ref None in
  let steps, trapped =
    match drive with
    | Live -> loop recording
    | Replayed p -> loop (Vm_path.replayer p)
    | Walked path ->
        let c = walk ?fuel ~path ~layout () in
        walked := Some c;
        (c.Path_walk.steps, c.Path_walk.trapped)
  in
  let output =
    match drive with
    | Replayed p | Walked p -> Vm_path.output p
    | Live -> output ()
  in
  let path =
    match drive with
    | Live -> Result.to_option (Vm_path.finish recorder ~steps ~trapped ~output)
    | Replayed _ | Walked _ -> None
  in
  match !walked with
  | Some c ->
      {
        steps;
        trapped;
        output;
        metrics = c.Path_walk.base;
        events = None;
        sims = sims_of_walk c;
        path;
      }
  | None ->
      let events = events () in
      {
        steps;
        trapped;
        output;
        metrics = m;
        events = Some events;
        sims = sims_of_events events;
        path;
      }

let toy_output state () = string_of_int (T.checksum state)

(* One full run of [program] under [technique], on a private program copy
   (quickening mutates it), layout and state. *)
let stream ~drive ?profile ?fuel ?(counters = 5) ~technique program =
  let program = Program.copy program in
  let config = Config.make ~cpu:Cpu_model.ideal technique in
  let profile =
    match profile with
    | Some _ as p -> p
    | None ->
        if Technique.uses_static_selection technique then begin
          let p = Profile.empty ~max_seq_len:4 in
          Profile.add_program p program;
          Some p
        end
        else None
  in
  let layout = Config.build_layout ?profile config ~program in
  let state = T.create_state ~counters:(Array.make 16 counters) () in
  run_drive ~drive ?fuel ~layout ~exec:(T.exec state)
    ~output:(toy_output state) ()

(* The control path of one complete functional run -- no layout, so no
   technique -- for replay under any technique or fuel. *)
let functional_path ?(counters = 5) program =
  let program = Program.copy program in
  let state = T.create_state ~counters:(Array.make 16 counters) () in
  let recorder, exec =
    Vm_path.recorder ~slots:(Program.length program) (T.exec state)
  in
  let steps, trapped = Engine.run_functional ~program ~exec () in
  match
    Vm_path.finish recorder ~steps ~trapped ~output:(toy_output state ())
  with
  | Ok p -> p
  | Error _ -> Alcotest.fail "a complete functional run must keep its path"

let check_streams_equal ~what a b =
  check_int (what ^ ": steps") a.steps b.steps;
  Alcotest.(check (option string)) (what ^ ": trap") a.trapped b.trapped;
  Alcotest.(check string) (what ^ ": output") a.output b.output;
  check_int (what ^ ": vm_instrs") a.metrics.Metrics.vm_instrs
    b.metrics.Metrics.vm_instrs;
  check_int (what ^ ": native_instrs") a.metrics.Metrics.native_instrs
    b.metrics.Metrics.native_instrs;
  check_int (what ^ ": dispatches") a.metrics.Metrics.dispatches
    b.metrics.Metrics.dispatches;
  check_int (what ^ ": indirect_branches")
    a.metrics.Metrics.indirect_branches b.metrics.Metrics.indirect_branches;
  check_int (what ^ ": quickenings") a.metrics.Metrics.quickenings
    b.metrics.Metrics.quickenings;
  Alcotest.(check (list int)) (what ^ ": simulator counts") a.sims b.sims;
  match (a.events, b.events) with
  | Some ea, Some eb ->
      check_int (what ^ ": events") (List.length ea) (List.length eb);
      check_bool (what ^ ": event streams identical") true (ea = eb)
  | _ -> ()

(* The live run, then a second run replaying [path] (default: the path
   the live run itself recorded, when it kept one) -- or, with [walk],
   walking it -- which must reproduce the live run. *)
let agree ?(walk = false) ?path ?profile ?fuel ?counters ~what ~technique
    program =
  let run drive = stream ~drive ?profile ?fuel ?counters ~technique program in
  let l = run Live in
  (match (path, l.path) with
  | Some p, _ | None, Some p ->
      let r = run (if walk then Walked p else Replayed p) in
      (* A path stores its complete run's output only, so a replay cut
         short by fuel has no output of its own to compare. *)
      let r =
        if r.trapped = Some Engine.out_of_fuel then { r with output = l.output }
        else r
      in
      check_streams_equal
        ~what:(what ^ if walk then " walked" else " replayed")
        r l
  | None, None -> ());
  l

(* Static selection needs a profile; give it one of the program itself. *)
let profile_for technique program =
  if Technique.uses_static_selection technique then begin
    let p = Profile.empty ~max_seq_len:4 in
    Profile.add_program p program;
    Some p
  end
  else None

(* The paper grid: every dispatch technique the report compares.  Only
   the last two with-static variants keep distinct shadow sites, and only
   across-bb's enters shadow windows. *)
let grid_techniques () =
  [
    Technique.switch;
    Technique.plain;
    Technique.static_repl ();
    Technique.static_super ();
    Technique.static_both ();
    Technique.dynamic_repl;
    Technique.dynamic_super;
    Technique.dynamic_both;
    Technique.across_bb;
    Technique.subroutine;
    Technique.with_static_super ();
    Technique.with_static_across_bb ();
  ]

(* ------------------------------------------------------------------ *)
(* 1. Live vs replayed (or walked) over the paper grid *)

let test_grid_toy_programs ~walk () =
  let programs =
    (("table1", T.table1_loop ()) :: ("table3", T.table3_loop ())
    :: List.map
         (fun seed ->
           ( Printf.sprintf "random-%d" seed,
             T.random_program ~seed ~size:40 ))
         [ 1; 2; 3; 4; 5; 6; 7; 8 ])
  in
  List.iter
    (fun (pname, program) ->
      (* One path, recorded without any layout, drives every technique:
         the control path does not depend on how dispatch is laid out. *)
      let path = functional_path program in
      List.iter
        (fun technique ->
          let what =
            Printf.sprintf "%s/%s" pname (Technique.descriptor technique)
          in
          let s = agree ~walk ~path ~what ~technique program in
          check_bool (what ^ ": ran") true (s.steps > 0);
          check_bool (what ^ ": live run kept its path") true
            (s.path <> None))
        (grid_techniques ()))
    programs

(* ------------------------------------------------------------------ *)
(* 2. Trap paths *)

(* A semantic trap from the workload: return with an empty call stack. *)
let test_trap_return_underflow ~walk () =
  let code =
    [|
      { Program.opcode = T.ops.T.op_a; operands = [||] };
      { Program.opcode = T.ops.T.op_ret; operands = [||] };
      { Program.opcode = T.ops.T.op_halt; operands = [||] };
    |]
  in
  let program = Program.make ~name:"underflow" ~iset:T.iset ~code ~entry:0 () in
  List.iter
    (fun technique ->
      let what = "underflow/" ^ Technique.descriptor technique in
      let s = agree ~walk ~what ~technique program in
      Alcotest.(check (option string))
        (what ^ ": trap message") (Some "return underflow") s.trapped)
    (grid_techniques ())

(* Hostile code: a goto rewritten out of range after the layout was
   built must surface as the engine's pc-bounds trap, live and re-run. *)
let test_trap_pc_escape ~walk () =
  let fresh_code () =
    [|
      { Program.opcode = T.ops.T.op_a; operands = [||] };
      { Program.opcode = T.ops.T.op_goto; operands = [| 0 |] };
      { Program.opcode = T.ops.T.op_halt; operands = [||] };
    |]
  in
  let run_escaped ~drive ~technique target =
    let program =
      Program.make ~name:"pc-escape" ~iset:T.iset ~code:(fresh_code ())
        ~entry:0 ()
    in
    let config = Config.make ~cpu:Cpu_model.ideal technique in
    let layout =
      Config.build_layout ?profile:(profile_for technique program) config
        ~program
    in
    (* Rewrite the target after the layout was built and validated: the
       engine, not the loader, must catch the escape.  [build_layout]
       copies the program, so mutate the copy the engine will run. *)
    layout.Code_layout.program.Program.code.(1).Program.operands.(0) <-
      target;
    let state = T.create_state ~counters:(Array.make 16 5) () in
    run_drive ~drive ~fuel:1_000 ~layout ~exec:(T.exec state)
      ~output:(toy_output state) ()
  in
  List.iter
    (fun target ->
      List.iter
        (fun technique ->
          let what =
            Printf.sprintf "pc-escape(%d)/%s" target
              (Technique.descriptor technique)
          in
          let l = run_escaped ~drive:Live ~technique target in
          Alcotest.(check (option string))
            (what ^ ": trapped") (Some Engine.pc_out_of_range) l.trapped;
          (* The escaping jump is out of range, so the path stores it in
             its side table; replay must escape at the same step. *)
          match l.path with
          | None -> Alcotest.failf "%s: a pc escape keeps its path" what
          | Some p ->
              check_streams_equal
                ~what:(what ^ if walk then " walked" else " replayed")
                (run_escaped
                   ~drive:(if walk then Walked p else Replayed p)
                   ~technique target)
                l)
        (grid_techniques ()))
    [ -1; 3; 9999 ]

(* Fuel exhaustion at every small budget: a replay or a walk of a
   complete run's path must stop on exactly the step the live run stops
   on, including budgets that end mid-range. *)
let test_trap_fuel ~walk () =
  let program = T.table1_loop () in
  let path = functional_path ~counters:1_000_000 program in
  List.iter
    (fun fuel ->
      List.iter
        (fun technique ->
          let what =
            Printf.sprintf "fuel=%d/%s" fuel (Technique.descriptor technique)
          in
          let s =
            agree ~walk ~path ~what ~technique ~fuel ~counters:1_000_000
              program
          in
          Alcotest.(check (option string))
            (what ^ ": out of fuel") (Some Engine.out_of_fuel) s.trapped;
          check_int (what ^ ": stopped at the budget") fuel s.steps)
        [ Technique.plain; Technique.dynamic_both; Technique.subroutine ])
    [ 1; 2; 3; 5; 7; 11; 64; 1000 ]

(* A path replayed under less fuel than its recording ran must stop out
   of fuel on exactly the step the live run stops on, with the same
   events up to there -- including budgets that end mid-block and runs
   that quicken before the cut. *)
let test_path_less_fuel () =
  let program = T.random_program ~seed:31 ~size:40 in
  let path = functional_path program in
  let full = Vm_path.steps path in
  check_bool "the program runs long enough" true (full > 300);
  List.iter
    (fun fuel ->
      List.iter
        (fun technique ->
          let what =
            Printf.sprintf "fuel=%d/%s" fuel (Technique.descriptor technique)
          in
          let s = agree ~path ~what ~fuel ~technique program in
          Alcotest.(check (option string))
            (what ^ ": out of fuel") (Some Engine.out_of_fuel) s.trapped;
          check_int (what ^ ": stopped at the budget") fuel s.steps)
        [ Technique.plain; Technique.dynamic_both; Technique.subroutine ])
    (List.init 40 (fun k -> 1 + (k * 7)) @ [ full / 2; full - 1 ])

(* A run that stops out of fuel keeps no path, however close it came; a
   budget of exactly the steps the program needs completes and keeps
   one. *)
let test_path_out_of_fuel_keeps_nothing () =
  let program = T.random_program ~seed:32 ~size:40 in
  let full = Vm_path.steps (functional_path program) in
  List.iter
    (fun technique ->
      let what = Technique.descriptor technique in
      List.iter
        (fun fuel ->
          let s = stream ~drive:Live ~fuel ~technique program in
          check_bool
            (Printf.sprintf "%s fuel=%d: no path" what fuel)
            true (s.path = None))
        [ 1; full / 2; full - 1 ];
      let s = stream ~drive:Live ~fuel:full ~technique program in
      Alcotest.(check (option string)) (what ^ ": completes") None s.trapped;
      check_bool (what ^ ": exact budget keeps the path") true (s.path <> None))
    [ Technique.plain; Technique.dynamic_both ]

(* Replayed quickenings install fresh operand arrays: two runs replaying
   one path, and the live run it was recorded from, never share program
   state. *)
let test_path_private_operands () =
  let program = T.random_program ~seed:33 ~size:60 in
  let technique = Technique.dynamic_both in
  let run exec =
    let program = Program.copy program in
    let layout =
      Config.build_layout (Config.make ~cpu:Cpu_model.ideal technique) ~program
    in
    let m = Metrics.create () in
    let sink, _ = capture () in
    let steps, trapped = Engine.run_events ~metrics:m ~layout ~exec ~sink () in
    (steps, trapped, m.Metrics.quickenings, layout.Code_layout.program)
  in
  let state = T.create_state ~counters:(Array.make 16 5) () in
  let recorder, recording =
    Vm_path.recorder ~slots:(Program.length program) (T.exec state)
  in
  let steps, trapped, q, live = run recording in
  let path =
    match Vm_path.finish recorder ~steps ~trapped ~output:"" with
    | Ok p -> p
    | Error _ -> Alcotest.fail "the live run keeps its path"
  in
  check_bool "the program quickens" true (q > 0);
  let _, _, q1, a = run (Vm_path.replayer path) in
  let _, _, q2, b = run (Vm_path.replayer path) in
  check_int "replays quicken alike" q q1;
  check_int "replays quicken alike" q q2;
  Array.iteri
    (fun k (slot : Program.slot) ->
      let quickened =
        slot.Program.opcode <> program.Program.code.(k).Program.opcode
      in
      if quickened then begin
        let ol = slot.Program.operands
        and oa = a.Program.code.(k).Program.operands
        and ob = b.Program.code.(k).Program.operands in
        Alcotest.(check (array int))
          (Printf.sprintf "slot %d: replayed operands" k) ol oa;
        check_bool
          (Printf.sprintf "slot %d: runs own their operands" k)
          true
          (oa != ob && oa != ol && ob != ol)
      end)
    live.Program.code

(* ------------------------------------------------------------------ *)
(* 3. Full-run field equality across cpu x predictor *)

(* One complete result of [program]: [Engine.run] live, or the
   [Path_walk.result] of a one-configuration walk of the program's
   functional path. *)
let run_full ~walk ~cpu ~predictor ~technique program =
  let program = Program.copy program in
  let cpu = Cpu_model.with_predictor cpu predictor in
  let config = Config.make ~cpu technique in
  let layout =
    Config.build_layout ?profile:(profile_for technique program) config
      ~program
  in
  if walk then begin
    let path = functional_path program in
    let c =
      Path_walk.walk ~fuel:1_000_000 ~path ~layout
        ~predictors:[| Predictor.create (Config.predictor_kind config) |]
        ~icaches:[| Icache.create cpu.Cpu_model.icache |]
        ()
    in
    ( Path_walk.result c ~cpu ~predictor:0 ~icache:0,
      int_of_string (Vm_path.output path) )
  end
  else begin
    let state = T.create_state ~counters:(Array.make 16 5) () in
    let r =
      Engine.run ~fuel:1_000_000 ~config ~layout ~exec:(T.exec state) ()
    in
    (r, T.checksum state)
  end

let test_cpu_predictor_matrix () =
  let program = T.random_program ~seed:11 ~size:40 in
  let predictors =
    [
      Predictor.Btb (Btb.classic ~entries:256 ~associativity:1);
      Predictor.Btb (Btb.with_counters ~entries:128 ~associativity:2);
      Predictor.Btb Btb.ideal;
      Predictor.Perfect;
      Predictor.Never;
    ]
  in
  List.iter
    (fun cpu ->
      List.iter
        (fun predictor ->
          List.iter
            (fun technique ->
              let what =
                Printf.sprintf "%s/%s/%s" cpu.Cpu_model.name
                  (Predictor.kind_name predictor)
                  (Technique.descriptor technique)
              in
              let r1, k1 =
                run_full ~walk:false ~cpu ~predictor ~technique program
              and r2, k2 =
                run_full ~walk:true ~cpu ~predictor ~technique program
              in
              check_int (what ^ ": steps") r1.Engine.steps r2.Engine.steps;
              Alcotest.(check (option string))
                (what ^ ": trap") r1.Engine.trapped r2.Engine.trapped;
              check_int (what ^ ": checksum") k1 k2;
              check_bool (what ^ ": metrics equal") true
                (r1.Engine.metrics = r2.Engine.metrics);
              check_bool (what ^ ": cycles equal") true
                (r1.Engine.cycles = r2.Engine.cycles);
              check_bool (what ^ ": seconds equal") true
                (r1.Engine.seconds = r2.Engine.seconds))
            [ Technique.plain; Technique.static_both (); Technique.dynamic_both ])
        predictors)
    [ Cpu_model.celeron_800; Cpu_model.pentium4_northwood ]

(* ------------------------------------------------------------------ *)
(* 4. Real-VM workloads, live and re-run *)

let test_real_vm_workloads ~walk () =
  let pick vm name =
    match Vmbp_workloads.find ~vm name with
    | Some w -> w
    | None -> Alcotest.failf "workload %s not found" name
  in
  let workloads =
    [ pick Vmbp_workloads.Forth "gray"; pick Vmbp_workloads.Jvm "db" ]
  in
  List.iter
    (fun (w : Vmbp_workloads.t) ->
      List.iter
        (fun technique ->
          let what =
            Printf.sprintf "%s/%s/%s"
              (Vmbp_workloads.vm_name w.Vmbp_workloads.vm)
              w.Vmbp_workloads.name
              (Technique.descriptor technique)
          in
          let run drive =
            let loaded = w.Vmbp_workloads.load ~scale:1 in
            let session = loaded.Vmbp_workloads.fresh_session () in
            let config = Config.make ~cpu:Cpu_model.ideal technique in
            let layout =
              Config.build_layout
                ?profile:
                  (profile_for technique loaded.Vmbp_workloads.program)
                config ~program:loaded.Vmbp_workloads.program
            in
            run_drive ~drive ~fuel:5_000_000 ~layout
              ~exec:session.Vmbp_workloads.exec
              ~output:session.Vmbp_workloads.output ()
          in
          let l = run Live in
          match l.path with
          | None -> Alcotest.failf "%s: a complete run keeps its path" what
          | Some p ->
              let what = what ^ if walk then " walked" else " replayed" in
              let r = run (if walk then Walked p else Replayed p) in
              check_streams_equal ~what r l;
              check_bool (what ^ ": metrics equal") true (r.metrics = l.metrics))
        [ Technique.plain; Technique.static_both (); Technique.dynamic_both ])
    workloads

(* ------------------------------------------------------------------ *)
(* 5. Path walks over many configurations *)

(* One walk driving every configuration at once must count, for each of
   them, exactly what a walk driving that configuration alone counts. *)
let test_walk_many_configs () =
  let layout technique program =
    let program = Program.copy program in
    Config.build_layout
      ?profile:(profile_for technique program)
      (Config.make ~cpu:Cpu_model.ideal technique)
      ~program
  in
  List.iter
    (fun seed ->
      let program = T.random_program ~seed ~size:50 in
      let path = functional_path program in
      List.iter
        (fun technique ->
          let what =
            Printf.sprintf "seed=%d/%s" seed (Technique.descriptor technique)
          in
          let many = walk ~path ~layout:(layout technique program) () in
          let alone ~predictors ~icaches =
            Path_walk.walk ~path ~layout:(layout technique program)
              ~predictors:(Array.of_list (List.map Predictor.create predictors))
              ~icaches:(Array.of_list (List.map Icache.create icaches))
              ()
          in
          List.iteri
            (fun j kind ->
              let one = alone ~predictors:[ kind ] ~icaches:[] in
              let label = what ^ "/" ^ Predictor.descriptor kind in
              check_bool (label ^ ": base counters") true
                (one.Path_walk.base = many.Path_walk.base);
              check_int (label ^ ": mispredicts")
                one.Path_walk.mispredicts.(0) many.Path_walk.mispredicts.(j);
              check_int (label ^ ": vm mispredicts")
                one.Path_walk.vm_branch_mispredicts.(0)
                many.Path_walk.vm_branch_mispredicts.(j))
            walk_kinds;
          List.iteri
            (fun j config ->
              let one = alone ~predictors:[] ~icaches:[ config ] in
              let label = what ^ "/" ^ Icache.descriptor config in
              check_int (label ^ ": fetches")
                one.Path_walk.icache_fetches.(0)
                many.Path_walk.icache_fetches.(j);
              check_int (label ^ ": misses") one.Path_walk.icache_misses.(0)
                many.Path_walk.icache_misses.(j))
            walk_icaches)
        [ Technique.plain; Technique.dynamic_both; Technique.across_bb ])
    [ 41; 42; 43 ]

(* ------------------------------------------------------------------ *)
(* 6. Translation machinery: quickening invalidation *)

(* After a walk that quickened, the incrementally re-translated stream
   must equal a from-scratch decode of the mutated layout. *)
let test_quicken_retranslation () =
  let program = T.random_program ~seed:23 ~size:50 in
  let path = functional_path program in
  List.iter
    (fun technique ->
      let what = "quicken/" ^ Technique.descriptor technique in
      let config = Config.make ~cpu:Cpu_model.ideal technique in
      let layout = Config.build_layout config ~program in
      let translation = Engine.translate layout in
      let c =
        Path_walk.walk ~fuel:1_000_000 ~translation ~path ~layout
          ~predictors:[||] ~icaches:[||] ()
      in
      Alcotest.(check (option string)) (what ^ ": no trap") None
        c.Path_walk.trapped;
      check_bool (what ^ ": program quickened") true
        (c.Path_walk.base.Metrics.quickenings > 0);
      check_bool (what ^ ": re-translation = fresh decode") true
        (Engine.translation_equal translation (Engine.translate layout)))
    [
      Technique.plain;
      Technique.dynamic_repl;
      Technique.dynamic_super;
      Technique.dynamic_both;
      Technique.across_bb;
    ]

let () =
  Alcotest.run "engine"
    [
      ( "grid",
        [
          Alcotest.test_case "toy programs x paper grid" `Quick
            (test_grid_toy_programs ~walk:false);
        ] );
      ( "traps",
        [
          Alcotest.test_case "return underflow" `Quick
            (test_trap_return_underflow ~walk:false);
          Alcotest.test_case "pc escape" `Quick
            (test_trap_pc_escape ~walk:false);
          Alcotest.test_case "fuel exhaustion" `Quick
            (test_trap_fuel ~walk:false);
        ] );
      ( "walk",
        [
          Alcotest.test_case "toy programs x paper grid" `Quick
            (test_grid_toy_programs ~walk:true);
          Alcotest.test_case "return underflow" `Quick
            (test_trap_return_underflow ~walk:true);
          Alcotest.test_case "pc escape" `Quick
            (test_trap_pc_escape ~walk:true);
          Alcotest.test_case "fuel exhaustion" `Quick
            (test_trap_fuel ~walk:true);
          Alcotest.test_case "real-VM workloads" `Quick
            (test_real_vm_workloads ~walk:true);
          Alcotest.test_case "many configurations equal one each" `Quick
            test_walk_many_configs;
        ] );
      ( "vm-path",
        [
          Alcotest.test_case "replay under less fuel" `Quick
            test_path_less_fuel;
          Alcotest.test_case "out-of-fuel recording keeps nothing" `Quick
            test_path_out_of_fuel_keeps_nothing;
          Alcotest.test_case "replayed quickenings own their operands" `Quick
            test_path_private_operands;
        ] );
      ( "full-run",
        [
          Alcotest.test_case "cpu x predictor matrix" `Quick
            test_cpu_predictor_matrix;
          Alcotest.test_case "real-VM workloads" `Quick
            (test_real_vm_workloads ~walk:false);
        ] );
      ( "translation",
        [
          Alcotest.test_case "quickening re-translation" `Quick
            test_quicken_retranslation;
        ] );
    ]
