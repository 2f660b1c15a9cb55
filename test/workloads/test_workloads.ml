(* End-to-end workload tests: every benchmark of both VMs terminates
   cleanly, produces identical output under every interpreter technique,
   and satisfies the cross-variant structural invariants of Section 7.3 at
   workload scale. *)

open Vmbp_core
open Vmbp_machine

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

let techniques =
  [
    Technique.switch;
    Technique.plain;
    Technique.static_repl ~n:100 ();
    Technique.static_super ~n:100 ();
    Technique.dynamic_repl;
    Technique.dynamic_super;
    Technique.dynamic_both;
    Technique.across_bb;
    Technique.with_static_super ~n:50 ();
    Technique.with_static_across_bb ~n:50 ();
    Technique.subroutine;
  ]

let test_reference_runs (w : Vmbp_workloads.t) () =
  let loaded = w.Vmbp_workloads.load ~scale:1 in
  let steps, trap, output = Vmbp_workloads.run_reference loaded in
  Alcotest.(check (option string)) "no trap" None trap;
  check_bool "does real work" true (steps > 50_000);
  check_bool "prints a checksum" true (String.length output > 0)

let test_all_techniques_agree (w : Vmbp_workloads.t) () =
  let loaded = w.Vmbp_workloads.load ~scale:1 in
  let _steps, _trap, reference = Vmbp_workloads.run_reference loaded in
  List.iter
    (fun technique ->
      let r =
        Vmbp_report.Runner.run ~cpu:Cpu_model.ideal ~technique w
      in
      check_string (Technique.name technique) reference
        r.Vmbp_report.Runner.output)
    techniques

let test_instruction_invariant (w : Vmbp_workloads.t) () =
  (* plain and dynamic repl retire the same native instructions and
     indirect branches (paper Section 7.3), even with quickening. *)
  let run t = Vmbp_report.Runner.run ~cpu:Cpu_model.ideal ~technique:t w in
  let plain = run Technique.plain in
  let drepl = run Technique.dynamic_repl in
  let m (r : Vmbp_report.Runner.run) = r.Vmbp_report.Runner.result.Engine.metrics in
  check_int "native instrs equal" (m plain).Metrics.native_instrs
    (m drepl).Metrics.native_instrs;
  check_int "indirect branches equal" (m plain).Metrics.indirect_branches
    (m drepl).Metrics.indirect_branches

let test_dispatch_reduction (w : Vmbp_workloads.t) () =
  let run t = Vmbp_report.Runner.run ~cpu:Cpu_model.ideal ~technique:t w in
  let d t =
    (run t).Vmbp_report.Runner.result.Engine.metrics.Metrics.dispatches
  in
  let plain = d Technique.plain in
  let super = d Technique.dynamic_super in
  let across = d Technique.across_bb in
  check_bool "super reduces dispatches" true (super < plain);
  check_bool "across-bb reduces further" true (across <= super)

let test_quickening_only_jvm () =
  List.iter
    (fun (w : Vmbp_workloads.t) ->
      let r =
        Vmbp_report.Runner.run ~cpu:Cpu_model.ideal ~technique:Technique.plain w
      in
      let q =
        r.Vmbp_report.Runner.result.Engine.metrics.Metrics.quickenings
      in
      match w.Vmbp_workloads.vm with
      | Vmbp_workloads.Forth -> check_int (w.Vmbp_workloads.name ^ " quickens") 0 q
      | Vmbp_workloads.Jvm ->
          check_bool (w.Vmbp_workloads.name ^ " quickens") true (q > 0))
    Vmbp_workloads.all

let test_training_profile_nonempty () =
  let p =
    Vmbp_workloads.training_profile ~vm:Vmbp_workloads.Forth ~target:"gray"
      ~scale:1 ()
  in
  check_bool "has sequences" true
    (Vmbp_vm.Profile.top_sequences p ~n:5 () <> []);
  let pj =
    Vmbp_workloads.training_profile ~vm:Vmbp_workloads.Jvm ~target:"compress"
      ~scale:1 ()
  in
  (* Leave-one-out profiles are taken after quickening, so quick opcodes
     appear and quickable originals are rare. *)
  check_bool "jvm profile has sequences" true
    (Vmbp_vm.Profile.top_sequences pj ~n:5 () <> [])

(* Every JVM target's leave-one-out profile, which reads the memoised
   training runs, equals one built from fresh functional runs of the
   other six programs. *)
let test_training_profile_fresh_runs () =
  let quickened (w : Vmbp_workloads.t) =
    let loaded = w.Vmbp_workloads.load ~scale:1 in
    let program = Vmbp_vm.Program.copy loaded.Vmbp_workloads.program in
    let s = loaded.Vmbp_workloads.fresh_session () in
    ignore
      (Engine.run_functional ~fuel:500_000_000 ~program
         ~exec:s.Vmbp_workloads.exec ());
    (w.Vmbp_workloads.name, program)
  in
  let programs = List.map quickened Vmbp_workloads.jvm in
  let contents p =
    ( List.map
        (fun o -> (o, Vmbp_vm.Profile.opcode_count p o))
        (Vmbp_vm.Profile.top_opcodes p ~n:max_int),
      List.map
        (fun q -> (Array.to_list q, Vmbp_vm.Profile.sequence_count p q))
        (Vmbp_vm.Profile.top_sequences p ~n:max_int ()) )
  in
  List.iter
    (fun (target, _) ->
      let fresh = Vmbp_vm.Profile.empty ~max_seq_len:4 in
      List.iter
        (fun (name, p) ->
          if name <> target then Vmbp_vm.Profile.add_program fresh p)
        programs;
      Alcotest.(check (pair (list (pair int int)) (list (pair (list int) int))))
        (target ^ " profile") (contents fresh)
        (contents
           (Vmbp_workloads.training_profile ~vm:Vmbp_workloads.Jvm ~target
              ~scale:1 ())))
    programs

(* Golden outputs at scale 1: determinism regression net.  These values pin
   the current workload definitions; they change whenever a workload's code
   or the shared PRNG changes (then regenerate with dev/golden.ml). *)
let golden =
  [
    (("forth", "gray"), "797220510 ");
    (("forth", "bench-gc"), "152896530 ");
    (("forth", "tscp"), "1095 ");
    (("forth", "vmgen"), "5221202 ");
    (("forth", "cross"), "1027561392 ");
    (("forth", "brainless"), "992189 ");
    (("forth", "brew"), "521275142 ");
    (("jvm", "jack"), "694365439 ");
    (("jvm", "mpeg"), "999585489 ");
    (("jvm", "compress"), "982443953 ");
    (("jvm", "javac"), "986775392 ");
    (("jvm", "jess"), "384281757 ");
    (("jvm", "db"), "189618 ");
    (("jvm", "mtrt"), "920058789 ");
  ]

let test_golden_outputs () =
  List.iter
    (fun (w : Vmbp_workloads.t) ->
      let key =
        (Vmbp_workloads.vm_name w.Vmbp_workloads.vm, w.Vmbp_workloads.name)
      in
      let expected = List.assoc key golden in
      let loaded = w.Vmbp_workloads.load ~scale:1 in
      let _, _, out = Vmbp_workloads.run_reference loaded in
      check_string (fst key ^ "/" ^ snd key) expected out)
    Vmbp_workloads.all

let per_workload name f =
  List.map
    (fun (w : Vmbp_workloads.t) ->
      Alcotest.test_case
        (Printf.sprintf "%s/%s %s"
           (Vmbp_workloads.vm_name w.Vmbp_workloads.vm)
           w.Vmbp_workloads.name name)
        `Slow (f w))
    Vmbp_workloads.all

let () =
  Alcotest.run "workloads"
    [
      ("reference", per_workload "runs" test_reference_runs);
      ( "golden",
        [ Alcotest.test_case "scale-1 outputs pinned" `Slow test_golden_outputs ] );
      ("equivalence", per_workload "techniques agree" test_all_techniques_agree);
      ("invariants", per_workload "instruction invariant" test_instruction_invariant);
      ("dispatch", per_workload "dispatch reduction" test_dispatch_reduction);
      ( "quickening",
        [
          Alcotest.test_case "only the JVM quickens" `Slow
            test_quickening_only_jvm;
          Alcotest.test_case "training profiles" `Slow
            test_training_profile_nonempty;
          Alcotest.test_case "jvm profiles from fresh runs" `Slow
            test_training_profile_fresh_runs;
        ] );
    ]
