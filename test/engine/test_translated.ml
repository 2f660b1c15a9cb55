(* Differential tests for the decode-once translated interpreter loop.

   [Engine.run_events] (block-entry guards over a pre-translated stream)
   must be observably identical to [Engine.run_events_legacy] (the
   per-step reference loop): same event stream into the sink, same
   deterministic metrics, same steps/trap reporting -- across every
   technique of the paper grid, across trap paths (fuel exhaustion,
   pc escape, semantic traps), and across real-VM workloads.  Each of
   those cases also runs the translated loop a third time, driven by a
   recorded VM control path ([Vm_path]) instead of the semantics, which
   must reproduce the live run exactly.  A second group checks the
   translation machinery itself: plan instantiation reproduces a fresh
   decode, and quickening's incremental re-translation leaves the
   translation equal to a from-scratch decode of the mutated layout. *)

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
  events : event list;
  path : Vm_path.t option;
      (* the control path a [Translated] run recorded, if it kept one *)
}

(* How a run executes the semantics: live through the translated loop
   (recording the control path on the side), live through the legacy
   loop, or through the translated loop driven by a recorded path, which
   reports the output its recording run ended with. *)
type drive = Translated | Legacy | Replayed of Vm_path.t

(* Run [exec] over [layout] through the loop [drive] selects; [output]
   reads the live session's output afterwards. *)
let run_drive ~drive ?fuel ~layout ~exec ~output () =
  let m = Metrics.create () in
  let sink, events = capture () in
  let slots = Program.length layout.Code_layout.program in
  let recorder, recording = Vm_path.recorder ~slots exec in
  let translated exec =
    Engine.run_events ?fuel ~metrics:m ~layout ~exec ~sink ()
  in
  let steps, trapped =
    match drive with
    | Legacy ->
        Engine.run_events_legacy ?fuel ~metrics:m ~layout ~exec ~sink ()
    | Translated -> translated recording
    | Replayed p -> translated (Vm_path.replayer p)
  in
  let output =
    match drive with
    | Replayed p -> Vm_path.output p
    | Translated | Legacy -> output ()
  in
  let path =
    match drive with
    | Translated ->
        Result.to_option (Vm_path.finish recorder ~steps ~trapped ~output)
    | Legacy | Replayed _ -> None
  in
  { steps; trapped; output; metrics = m; events = events (); path }

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
  check_int (what ^ ": events") (List.length a.events) (List.length b.events);
  check_bool (what ^ ": event streams identical") true (a.events = b.events)

(* Translated vs legacy, then a third run replaying [path] (default: the
   path the translated run itself recorded, when it kept one). *)
let agree ?path ?profile ?fuel ?counters ~what ~technique program =
  let run drive = stream ~drive ?profile ?fuel ?counters ~technique program in
  let t = run Translated in
  let l = run Legacy in
  check_streams_equal ~what t l;
  (match (path, t.path) with
  | Some p, _ | None, Some p ->
      let r = run (Replayed p) in
      (* A path stores its complete run's output only, so a replay cut
         short by fuel has no output of its own to compare. *)
      let r =
        if r.trapped = Some Engine.out_of_fuel then { r with output = l.output }
        else r
      in
      check_streams_equal ~what:(what ^ " replayed") r l
  | None, None -> ());
  t

(* Static selection needs a profile; give it one of the program itself. *)
let profile_for technique program =
  if Technique.uses_static_selection technique then begin
    let p = Profile.empty ~max_seq_len:4 in
    Profile.add_program p program;
    Some p
  end
  else None

(* The paper grid: every dispatch technique the report compares. *)
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
  ]

(* ------------------------------------------------------------------ *)
(* 1. Translated vs legacy over the paper grid *)

let test_grid_toy_programs () =
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
          let s = agree ~path ~what ~technique program in
          check_bool (what ^ ": ran") true (s.steps > 0);
          check_bool (what ^ ": translated run kept its path") true
            (s.path <> None))
        (grid_techniques ()))
    programs

(* ------------------------------------------------------------------ *)
(* 2. Trap paths *)

(* A semantic trap from the workload: return with an empty call stack. *)
let test_trap_return_underflow () =
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
      let s = agree ~what ~technique program in
      Alcotest.(check (option string))
        (what ^ ": trap message") (Some "return underflow") s.trapped)
    (grid_techniques ())

(* Hostile code: a goto rewritten out of range after the layout was
   built must surface as the engine's pc-bounds trap in both loops. *)
let test_trap_pc_escape () =
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
          let t = run_escaped ~drive:Translated ~technique target in
          let l = run_escaped ~drive:Legacy ~technique target in
          check_streams_equal ~what t l;
          check_bool (what ^ ": trapped") true (t.trapped <> None);
          (* The escaping jump is out of range, so the path stores it in
             its side table; replay must escape at the same step. *)
          match t.path with
          | None -> Alcotest.failf "%s: a pc escape keeps its path" what
          | Some p ->
              check_streams_equal ~what:(what ^ " replayed")
                (run_escaped ~drive:(Replayed p) ~technique target)
                l)
        (grid_techniques ()))
    [ -1; 3; 9999 ]

(* Fuel exhaustion at every small budget: the translated loop's
   block-sized fuel credits must stop on exactly the same step as the
   per-step loop, including budgets that end mid-block. *)
let test_trap_fuel () =
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
            agree ~path ~what ~technique ~fuel ~counters:1_000_000 program
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
          let s = stream ~drive:Translated ~fuel ~technique program in
          check_bool
            (Printf.sprintf "%s fuel=%d: no path" what fuel)
            true (s.path = None))
        [ 1; full / 2; full - 1 ];
      let s = stream ~drive:Translated ~fuel:full ~technique program in
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

let run_full ~legacy ~cpu ~predictor ~technique program =
  let program = Program.copy program in
  let config =
    Config.make ~cpu:(Cpu_model.with_predictor cpu predictor) technique
  in
  let layout =
    Config.build_layout ?profile:(profile_for technique program) config
      ~program
  in
  let state = T.create_state ~counters:(Array.make 16 5) () in
  if legacy then begin
    (* [Engine.run] drives the translated loop; reproduce its simulator
       wiring around the legacy loop to compare complete results. *)
    let m = Metrics.create () in
    let predictor = Predictor.create (Config.predictor_kind config) in
    let icache = Icache.create cpu.Cpu_model.icache in
    let hits = ref 0 and misses = ref 0 in
    let sink =
      {
        Engine.on_dispatch =
          (fun ~branch ~target ~opcode ~vm_transfer ->
            if not (Predictor.access predictor ~branch ~target ~opcode)
            then begin
              m.Metrics.mispredicts <- m.Metrics.mispredicts + 1;
              if vm_transfer then
                m.Metrics.vm_branch_mispredicts <-
                  m.Metrics.vm_branch_mispredicts + 1
            end);
        on_fetch =
          (fun ~addr ~bytes ~opcode:_ ->
            Icache.fetch icache ~addr ~bytes ~hits ~misses);
      }
    in
    let steps, trapped =
      Engine.run_events_legacy ~fuel:1_000_000 ~metrics:m ~layout
        ~exec:(T.exec state) ~sink ()
    in
    m.Metrics.icache_fetches <- !hits + !misses;
    m.Metrics.icache_misses <- !misses;
    m.Metrics.code_bytes <- layout.Code_layout.runtime_code_bytes;
    (steps, trapped, m, Cpu_model.cycles cpu m, T.checksum state)
  end
  else begin
    let r =
      Engine.run ~fuel:1_000_000 ~config ~layout ~exec:(T.exec state) ()
    in
    ( r.Engine.steps,
      r.Engine.trapped,
      r.Engine.metrics,
      r.Engine.cycles,
      T.checksum state )
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
              let s1, t1, m1, c1, k1 =
                run_full ~legacy:false ~cpu ~predictor ~technique program
              and s2, t2, m2, c2, k2 =
                run_full ~legacy:true ~cpu ~predictor ~technique program
              in
              check_int (what ^ ": steps") s1 s2;
              Alcotest.(check (option string)) (what ^ ": trap") t1 t2;
              check_int (what ^ ": checksum") k1 k2;
              check_bool (what ^ ": metrics equal") true (m1 = m2);
              check_bool (what ^ ": cycles equal") true (c1 = c2))
            [ Technique.plain; Technique.static_both (); Technique.dynamic_both ])
        predictors)
    [ Cpu_model.celeron_800; Cpu_model.pentium4_northwood ]

(* ------------------------------------------------------------------ *)
(* 4. Real-VM workloads through both loops *)

let test_real_vm_workloads () =
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
          let t = run Translated and l = run Legacy in
          check_streams_equal ~what t l;
          check_bool (what ^ ": metrics equal") true (t.metrics = l.metrics);
          match t.path with
          | None -> Alcotest.failf "%s: a complete run keeps its path" what
          | Some p ->
              let r = run (Replayed p) in
              check_streams_equal ~what:(what ^ " replayed") r l;
              check_bool (what ^ " replayed: metrics equal") true
                (r.metrics = l.metrics))
        [ Technique.plain; Technique.static_both (); Technique.dynamic_both ])
    workloads

(* ------------------------------------------------------------------ *)
(* 5. Translation machinery: plans and quickening invalidation *)

let test_plan_instantiation () =
  List.iter
    (fun technique ->
      let what = "plan/" ^ Technique.descriptor technique in
      let program = T.random_program ~seed:21 ~size:30 in
      let config = Config.make ~cpu:Cpu_model.ideal technique in
      let layout =
        Config.build_layout ?profile:(profile_for technique program) config
          ~program
      in
      let plan = Engine.plan layout in
      check_int (what ^ ": plan_slots")
        (Program.length layout.Code_layout.program)
        (Engine.plan_slots plan);
      check_bool (what ^ ": instantiated = fresh") true
        (Engine.translation_equal
           (Engine.translation ~plan layout)
           (Engine.translate layout)))
    (grid_techniques ())

let test_plan_mismatch_rejected () =
  let program = T.random_program ~seed:22 ~size:30 in
  let config = Config.make ~cpu:Cpu_model.ideal Technique.plain in
  let layout = Config.build_layout config ~program in
  let plan = Engine.plan layout in
  let other =
    Config.build_layout
      (Config.make ~cpu:Cpu_model.ideal Technique.dynamic_both)
      ~program:(Program.copy program)
  in
  check_bool "technique mismatch raises" true
    (match Engine.translation ~plan other with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* After a run that quickened, the incrementally re-translated stream
   must equal a from-scratch decode of the mutated layout. *)
let test_quicken_retranslation () =
  List.iter
    (fun technique ->
      let what = "quicken/" ^ Technique.descriptor technique in
      let program = T.random_program ~seed:23 ~size:50 in
      let config = Config.make ~cpu:Cpu_model.ideal technique in
      let layout = Config.build_layout config ~program in
      let translation = Engine.translate layout in
      let m = Metrics.create () in
      let state = T.create_state ~counters:(Array.make 16 5) () in
      let sink, _ = capture () in
      let _steps, trapped =
        Engine.run_events ~fuel:1_000_000 ~translation ~metrics:m ~layout
          ~exec:(T.exec state) ~sink ()
      in
      Alcotest.(check (option string)) (what ^ ": no trap") None trapped;
      check_bool (what ^ ": program quickened") true
        (m.Metrics.quickenings > 0);
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
  Alcotest.run "translated engine"
    [
      ( "grid",
        [
          Alcotest.test_case "toy programs x paper grid" `Quick
            test_grid_toy_programs;
        ] );
      ( "traps",
        [
          Alcotest.test_case "return underflow" `Quick
            test_trap_return_underflow;
          Alcotest.test_case "pc escape" `Quick test_trap_pc_escape;
          Alcotest.test_case "fuel exhaustion" `Quick test_trap_fuel;
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
            test_real_vm_workloads;
        ] );
      ( "translation",
        [
          Alcotest.test_case "plan instantiation" `Quick
            test_plan_instantiation;
          Alcotest.test_case "plan mismatch rejected" `Quick
            test_plan_mismatch_rejected;
          Alcotest.test_case "quickening re-translation" `Quick
            test_quicken_retranslation;
        ] );
    ]
