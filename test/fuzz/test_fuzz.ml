(* Frontend and engine fuzzing.

   Three fuzzers, each a QCheck property over a PRNG seed (so every
   generated case is reproducible from the QCheck seed alone):

   - random toy-VM programs, run under every dynamic technique: the
     engine must never raise, metrics must satisfy their conservation
     laws, the cost model must be monotone in the stall penalties, and
     the checksum must be identical under every technique;
   - random Forth programs through the real compiler and interpreter,
     plus mutated/malformed sources, which must either compile or fail
     with [Compiler.Error] -- never any other exception;
   - mutated binary JVM images through [Image_bytes.decode], which must
     either raise [Malformed] or produce an image that runs (and at
     worst traps cleanly) under a fuel cap.

   Counts scale with the VMBP_FUZZ_* environment variables so CI smoke
   runs stay within budget while the full 10k/1k acceptance run is one
   environment variable away. *)

open Vmbp_machine
open Vmbp_core

let env_count name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> default

let program_count = env_count "VMBP_FUZZ_PROGRAMS" 10_000
let forth_count = env_count "VMBP_FUZZ_FORTH" 400
let image_count = env_count "VMBP_FUZZ_IMAGES" 1_000

(* splitmix64: one stream per case, derived from the case's seed. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

type rng = { mutable state : int64 }

let rng_of_seed seed = { state = Int64.of_int (seed * 2 + 1) }

let next rng =
  rng.state <- Int64.add rng.state 0x9e3779b97f4a7c15L;
  Int64.to_int (Int64.logand (mix64 rng.state) 0x3fffffffffffffffL)

let rand rng bound = if bound <= 0 then 0 else next rng mod bound

let seed_arb =
  QCheck.make
    ~print:(Printf.sprintf "seed %d")
    QCheck.Gen.(int_bound 0x3FFFFFFF)

(* ------------------------------------------------------------------ *)
(* Shared invariant checks *)

let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt

let check_metric_conservation ~what (r : Engine.result) =
  let m = r.Engine.metrics in
  if m.Metrics.mispredicts > m.Metrics.indirect_branches then
    fail "%s: mispredicts %d > indirect branches %d" what
      m.Metrics.mispredicts m.Metrics.indirect_branches;
  if m.Metrics.vm_branch_mispredicts > m.Metrics.mispredicts then
    fail "%s: vm-branch mispredicts %d > mispredicts %d" what
      m.Metrics.vm_branch_mispredicts m.Metrics.mispredicts;
  if m.Metrics.dispatches > m.Metrics.indirect_branches then
    fail "%s: dispatches %d > indirect branches %d" what
      m.Metrics.dispatches m.Metrics.indirect_branches;
  if m.Metrics.icache_misses > m.Metrics.icache_fetches then
    fail "%s: icache misses %d > fetches %d" what m.Metrics.icache_misses
      m.Metrics.icache_fetches;
  List.iter
    (fun (n, v) -> if v < 0 then fail "%s: negative %s (%d)" what n v)
    [
      ("vm_instrs", m.Metrics.vm_instrs);
      ("native_instrs", m.Metrics.native_instrs);
      ("dispatches", m.Metrics.dispatches);
      ("mispredicts", m.Metrics.mispredicts);
      ("icache_fetches", m.Metrics.icache_fetches);
      ("icache_misses", m.Metrics.icache_misses);
      ("code_bytes", m.Metrics.code_bytes);
      ("quickenings", m.Metrics.quickenings);
    ];
  if not (Float.is_finite r.Engine.cycles) || r.Engine.cycles < 0. then
    fail "%s: bad cycle count %f" what r.Engine.cycles

(* The pipeline cost model must be monotone in both stall penalties. *)
let check_cycles_monotone ~what cpu (r : Engine.result) =
  let m = r.Engine.metrics in
  let base = Cpu_model.cycles cpu m in
  let bumped p =
    Cpu_model.cycles
      { cpu with Cpu_model.mispredict_penalty = cpu.Cpu_model.mispredict_penalty + p }
      m
  and bumped_icache p =
    Cpu_model.cycles
      { cpu with Cpu_model.icache_miss_penalty = cpu.Cpu_model.icache_miss_penalty + p }
      m
  in
  if bumped 10 < base then
    fail "%s: cycles not monotone in mispredict penalty" what;
  if bumped_icache 10 < base then
    fail "%s: cycles not monotone in icache penalty" what

(* ------------------------------------------------------------------ *)
(* 1. Random toy-VM programs *)

let fuzz_cpus = [| Cpu_model.celeron_800; Cpu_model.pentium4_northwood |]

let fuzz_techniques =
  [|
    Technique.switch;
    Technique.plain;
    Technique.dynamic_repl;
    Technique.dynamic_super;
    Technique.dynamic_both;
    Technique.across_bb;
    Technique.subroutine;
  |]

let run_toy ~technique ~cpu ~program =
  let state =
    Vmbp_toyvm.Toy_vm.create_state ~counters:(Array.make 16 5) ()
  in
  let config = Config.make ~cpu technique in
  let layout = Config.build_layout config ~program in
  let r =
    Engine.run ~fuel:1_000_000 ~config ~layout
      ~exec:(Vmbp_toyvm.Toy_vm.exec state) ()
  in
  (r, Vmbp_toyvm.Toy_vm.checksum state)

let prop_toy_program seed =
  let rng = rng_of_seed seed in
  let size = 8 + rand rng 56 in
  let program = Vmbp_toyvm.Toy_vm.random_program ~seed ~size in
  let cpu = fuzz_cpus.(rand rng (Array.length fuzz_cpus)) in
  let technique = fuzz_techniques.(rand rng (Array.length fuzz_techniques)) in
  let what = Printf.sprintf "toy seed=%d size=%d" seed size in
  let r_base, chk_base = run_toy ~technique:Technique.plain ~cpu ~program in
  (match r_base.Engine.trapped with
  | Some msg -> fail "%s: generated program trapped under plain: %s" what msg
  | None -> ());
  check_metric_conservation ~what r_base;
  check_cycles_monotone ~what cpu r_base;
  let r, chk = run_toy ~technique ~cpu ~program in
  (match r.Engine.trapped with
  | Some msg ->
      fail "%s: trapped under %s: %s" what (Technique.name technique) msg
  | None -> ());
  check_metric_conservation
    ~what:(what ^ "/" ^ Technique.name technique)
    r;
  if chk <> chk_base then
    fail "%s: checksum differs under %s (%d vs %d)" what
      (Technique.name technique) chk chk_base;
  if r.Engine.steps <> r_base.Engine.steps && not (Technique.is_dynamic technique)
     && technique <> Technique.switch
  then
    fail "%s: step count differs under %s" what (Technique.name technique);
  true

(* Lockstep oracle agreement on a sample of the random programs: the
   production simulators must match the naive reference models on
   machine-shaped (finite BTB, finite I-cache) configurations. *)
let prop_toy_program_oracle seed =
  let program = Vmbp_toyvm.Toy_vm.random_program ~seed ~size:24 in
  let cpu = Cpu_model.celeron_800 in
  let config = Config.make ~cpu Technique.plain in
  let layout = Config.build_layout config ~program in
  let state =
    Vmbp_toyvm.Toy_vm.create_state ~counters:(Array.make 16 5) ()
  in
  match
    Vmbp_report.Audit.dual_run ~fuel:1_000_000
      ~cell:(Printf.sprintf "fuzz-oracle-%d" seed)
      ~config ~layout ~exec:(Vmbp_toyvm.Toy_vm.exec state) ()
  with
  | Ok _ -> true
  | Error d -> fail "oracle divergence: %s" (Vmbp_report.Audit.describe d)

(* The decode-once translated loop against the per-step legacy loop:
   identical steps, trap, checksum, deterministic metrics and sink event
   stream on every generated program, under a technique drawn from the
   full grid (including the quickening dynamic ones, so incremental
   re-translation is fuzzed too) and a fuel budget that sometimes cuts
   the run short mid-block.  The translated run also records its VM
   control path, and a third run replays it: the replay must match too,
   and a run cut short by fuel must have kept no path. *)
let prop_toy_translated_vs_legacy seed =
  let rng = rng_of_seed seed in
  let size = 8 + rand rng 56 in
  let program = Vmbp_toyvm.Toy_vm.random_program ~seed ~size in
  let technique = fuzz_techniques.(rand rng (Array.length fuzz_techniques)) in
  let fuel = if rand rng 4 = 0 then 1 + rand rng 5_000 else 1_000_000 in
  let what =
    Printf.sprintf "translated seed=%d size=%d fuel=%d %s" seed size fuel
      (Technique.name technique)
  in
  let run drive =
    let program = Vmbp_vm.Program.copy program in
    let config = Config.make ~cpu:Cpu_model.celeron_800 technique in
    let layout = Config.build_layout config ~program in
    let state =
      Vmbp_toyvm.Toy_vm.create_state ~counters:(Array.make 16 5) ()
    in
    let recorder, recording =
      Vm_path.recorder
        ~slots:(Vmbp_vm.Program.length program)
        (Vmbp_toyvm.Toy_vm.exec state)
    in
    let events = ref [] in
    let sink =
      {
        Engine.on_dispatch =
          (fun ~branch ~target ~opcode ~vm_transfer ->
            events := (0, branch, target, opcode, Bool.to_int vm_transfer)
                      :: !events);
        on_fetch =
          (fun ~addr ~bytes ~opcode ->
            events := (1, addr, bytes, opcode, 0) :: !events);
      }
    in
    let m = Metrics.create () in
    let steps, trapped =
      match drive with
      | `Legacy ->
          Engine.run_events_legacy ~fuel ~metrics:m ~layout
            ~exec:(Vmbp_toyvm.Toy_vm.exec state) ~sink ()
      | `Translated ->
          Engine.run_events ~fuel ~metrics:m ~layout ~exec:recording ~sink ()
      | `Replayed p ->
          Engine.run_events ~fuel ~metrics:m ~layout
            ~exec:(Vm_path.replayer p) ~sink ()
    in
    let checksum =
      match drive with
      | `Replayed p -> int_of_string (Vm_path.output p)
      | `Legacy | `Translated -> Vmbp_toyvm.Toy_vm.checksum state
    in
    let path =
      match drive with
      | `Translated ->
          Result.to_option
            (Vm_path.finish recorder ~steps ~trapped
               ~output:(string_of_int checksum))
      | `Legacy | `Replayed _ -> None
    in
    ((steps, trapped, checksum, m, List.rev !events), path)
  in
  let compare_runs what (s1, t1, k1, m1, e1) (s2, t2, k2, m2, e2) =
    if s1 <> s2 then fail "%s: steps %d vs %d" what s1 s2;
    if t1 <> t2 then
      fail "%s: trap %s vs %s" what
        (Option.value ~default:"-" t1)
        (Option.value ~default:"-" t2);
    if k1 <> k2 then fail "%s: checksum %d vs %d" what k1 k2;
    if m1 <> m2 then fail "%s: metrics differ" what;
    if e1 <> e2 then
      fail "%s: event streams differ (%d vs %d events)" what (List.length e1)
        (List.length e2)
  in
  let translated, path = run `Translated in
  let legacy, _ = run `Legacy in
  compare_runs what translated legacy;
  let _, trapped, _, _, _ = translated in
  (match path with
  | Some _ when trapped = Some Engine.out_of_fuel ->
      fail "%s: a run that ran out of fuel kept a path" what
  | Some p -> compare_runs (what ^ " replayed") (fst (run (`Replayed p))) legacy
  | None ->
      if trapped <> Some Engine.out_of_fuel then
        fail "%s: a run that did not run out of fuel kept no path" what);
  true

(* Conservation of the audit counters themselves, on the recorded event
   stream: predictions = hits + mispredicts, fetches = hits + misses. *)
let prop_audit_counter_conservation seed =
  let program = Vmbp_toyvm.Toy_vm.random_program ~seed ~size:24 in
  let config = Config.make ~cpu:Cpu_model.celeron_800 Technique.plain in
  let layout = Config.build_layout config ~program in
  let state =
    Vmbp_toyvm.Toy_vm.create_state ~counters:(Array.make 16 5) ()
  in
  let events =
    Vmbp_report.Audit.record_events ~fuel:1_000_000 ~layout
      ~exec:(Vmbp_toyvm.Toy_vm.exec state) ()
  in
  let predictor = Config.predictor_kind config in
  let icache = Cpu_model.celeron_800.Cpu_model.icache in
  let fast = Vmbp_report.Audit.fast_sim ~predictor ~icache in
  (match
     Vmbp_report.Audit.check_events ~fast ~predictor ~icache events
   with
  | Some (i, detail, _, _) -> fail "diverged at %d: %s" i detail
  | None -> ());
  let c = fast.Vmbp_report.Audit.sim_counters () in
  let open Vmbp_report.Audit in
  if c.predictions <> c.pred_hits + c.mispredicts then
    fail "predictions %d <> hits %d + mispredicts %d" c.predictions
      c.pred_hits c.mispredicts;
  if c.icache_fetches <> c.icache_hits + c.icache_misses then
    fail "fetches %d <> hits %d + misses %d" c.icache_fetches c.icache_hits
      c.icache_misses;
  true

(* ------------------------------------------------------------------ *)
(* 2. Random Forth programs *)

(* Generate a stack-safe token sequence: the generator tracks the stack
   depth, so every emitted word is legal at its position.  [mix] folds a
   value into the prelude's checksum variable, making behaviour
   observable through [.chk]. *)
let gen_forth_tokens rng =
  let buf = Buffer.create 256 in
  let emit tok =
    Buffer.add_string buf tok;
    Buffer.add_char buf ' '
  in
  let depth = ref 0 in
  (* [floor] keeps nested regions (if-arms, loop bodies) from consuming
     values pushed outside them: at runtime only one arm executes, so
     every region must be depth-neutral relative to its own entry. *)
  let rec step ~floor budget =
    if budget <= 0 then ()
    else begin
      let avail = !depth - floor in
      (match rand rng 12 with
      | 0 | 1 | 2 ->
          emit (string_of_int (rand rng 1000));
          incr depth
      | 3 when avail >= 2 ->
          emit [| "+"; "-"; "*"; "and"; "or"; "xor" |].(rand rng 6);
          decr depth
      | 4 when avail >= 1 -> emit "dup"; incr depth
      | 5 when avail >= 2 -> emit "swap"
      | 6 when avail >= 1 -> emit "mix"; decr depth
      | 7 when avail >= 2 -> emit "over"; incr depth
      | 8 when avail >= 1 -> emit "drop"; decr depth
      | 9 when avail >= 1 ->
          (* conditional with depth-neutral arms *)
          emit "if";
          decr depth;
          let d0 = !depth in
          step ~floor:d0 (budget / 3);
          while !depth > d0 do emit "drop"; decr depth done;
          emit "else";
          step ~floor:d0 (budget / 3);
          while !depth > d0 do emit "drop"; decr depth done;
          emit "then"
      | 10 ->
          (* small counted loop with a depth-neutral body *)
          emit (string_of_int (2 + rand rng 4));
          emit "0";
          emit "do";
          let d0 = !depth in
          emit "i";
          incr depth;
          emit "mix";
          decr depth;
          step ~floor:d0 (budget / 4);
          while !depth > d0 do emit "drop"; decr depth done;
          emit "loop"
      | _ ->
          emit (string_of_int (rand rng 100));
          incr depth);
      step ~floor (budget - 1)
    end
  in
  step ~floor:0 (6 + rand rng 40);
  while !depth > 0 do
    emit "mix";
    decr depth
  done;
  emit ".chk";
  Buffer.contents buf

let forth_prelude =
  {|
variable chk
: mix ( n -- ) chk @ 31 * + 1073741823 and chk ! ;
: .chk chk @ . ;
|}

let run_forth_source ~what source =
  let program = Vmbp_forth.Compiler.compile ~name:"fuzz" source in
  let state = Vmbp_forth.State.create () in
  let config = Config.make ~cpu:Cpu_model.celeron_800 Technique.plain in
  let layout = Config.build_layout config ~program in
  let r =
    Engine.run ~fuel:2_000_000 ~config ~layout
      ~exec:(Vmbp_forth.Instruction_set.exec state) ()
  in
  (match r.Engine.trapped with
  | Some msg -> fail "%s: generated Forth program trapped: %s" what msg
  | None -> ());
  check_metric_conservation ~what r;
  Vmbp_forth.State.output state

let prop_forth_program seed =
  let rng = rng_of_seed seed in
  let source = forth_prelude ^ gen_forth_tokens rng in
  let what = Printf.sprintf "forth seed=%d" seed in
  let out1 = run_forth_source ~what source in
  let out2 = run_forth_source ~what source in
  if out1 <> out2 then fail "%s: output not deterministic" what;
  true

(* Mutated sources: the compiler must accept or reject with its own
   [Error] exception; no [Failure], no [Invalid_argument], no stack
   overflow may escape the frontend. *)
let mutate_tokens rng tokens =
  let arr = Array.of_list tokens in
  let n = Array.length arr in
  let junk =
    [| ";"; ":"; "then"; "if"; "else"; "do"; "loop"; "recurse"; "until";
       "repeat"; "while"; "begin"; "case"; "endcase"; "of"; "endof";
       "undefined-word"; "'"; "execute"; "variable"; "(" |]
  in
  match rand rng 3 with
  | 0 when n > 0 ->
      (* drop a token *)
      let i = rand rng n in
      Array.to_list (Array.append (Array.sub arr 0 i) (Array.sub arr (i + 1) (n - i - 1)))
  | 1 when n > 0 ->
      (* replace a token *)
      let i = rand rng n in
      arr.(i) <- junk.(rand rng (Array.length junk));
      Array.to_list arr
  | _ ->
      (* insert a token *)
      let i = rand rng (n + 1) in
      Array.to_list (Array.sub arr 0 i)
      @ [ junk.(rand rng (Array.length junk)) ]
      @ Array.to_list (Array.sub arr i (n - i))

let prop_forth_mutated seed =
  let rng = rng_of_seed seed in
  let tokens =
    String.split_on_char ' ' (gen_forth_tokens rng)
    |> List.filter (fun t -> t <> "")
  in
  let tokens =
    let rec go t = function 0 -> t | k -> go (mutate_tokens rng t) (k - 1) in
    go tokens (1 + rand rng 3)
  in
  let source = forth_prelude ^ String.concat " " tokens in
  match Vmbp_forth.Compiler.compile ~name:"fuzz-mutated" source with
  | _program -> true (* still compiles: also fine *)
  | exception Vmbp_forth.Compiler.Error _ -> true
  | exception exn ->
      fail "compiler raised %s on mutated source" (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* 3. Mutated binary JVM images *)

let base_image =
  lazy
    (match Vmbp_jvm.Jvm_workloads.find "db" with
    | Some w -> w.Vmbp_jvm.Jvm_workloads.build ~scale:1
    | None -> Alcotest.fail "jvm workload 'db' missing")

let base_bytes = lazy (Vmbp_jvm.Image_bytes.encode (Lazy.force base_image))

let test_image_roundtrip () =
  let bytes = Lazy.force base_bytes in
  let decoded = Vmbp_jvm.Image_bytes.decode bytes in
  Alcotest.(check int)
    "round-trip preserves the byte encoding"
    (String.length bytes)
    (String.length (Vmbp_jvm.Image_bytes.encode decoded));
  Alcotest.(check bool)
    "round-trip is the identity on bytes" true
    (String.equal bytes (Vmbp_jvm.Image_bytes.encode decoded))

let mutate_bytes rng s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  match rand rng 5 with
  | 0 when n > 0 ->
      (* flip one byte *)
      let i = rand rng n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + rand rng 255)));
      Bytes.to_string b
  | 1 when n > 1 ->
      (* truncate *)
      Bytes.sub_string b 0 (rand rng n)
  | 2 when n > 0 ->
      (* zero a run *)
      let i = rand rng n in
      let len = min (1 + rand rng 16) (n - i) in
      Bytes.fill b i len '\000';
      Bytes.to_string b
  | 3 ->
      (* insert random bytes *)
      let i = rand rng (n + 1) in
      let len = 1 + rand rng 8 in
      let ins = String.init len (fun _ -> Char.chr (rand rng 256)) in
      String.concat "" [ Bytes.sub_string b 0 i; ins; Bytes.sub_string b i (n - i) ]
  | _ when n > 2 ->
      (* splice: duplicate an interior slice over another position *)
      let src = rand rng (n - 1) in
      let len = min (1 + rand rng 32) (n - src) in
      let dst = rand rng (n - len) in
      Bytes.blit b src b dst len;
      Bytes.to_string b
  | _ -> Bytes.to_string b

let prop_image_mutated seed =
  let rng = rng_of_seed seed in
  let bytes =
    let rec go s = function 0 -> s | k -> go (mutate_bytes rng s) (k - 1) in
    go (Lazy.force base_bytes) (1 + rand rng 4)
  in
  match Vmbp_jvm.Image_bytes.decode bytes with
  | exception Vmbp_jvm.Image_bytes.Malformed _ -> true
  | exception exn ->
      fail "decode raised %s (only Malformed may escape)"
        (Printexc.to_string exn)
  | image -> (
      (* The image passed structural validation; running it may trap
         (the runtime's guards are part of the safety boundary) but must
         never raise. *)
      let what = Printf.sprintf "image seed=%d" seed in
      let state = Vmbp_jvm.Runtime.create image in
      let config = Config.make ~cpu:Cpu_model.pentium4_northwood Technique.plain in
      let layout =
        Config.build_layout config ~program:image.Vmbp_jvm.Runtime.program
      in
      match
        Engine.run ~fuel:200_000 ~config ~layout
          ~exec:(Vmbp_jvm.Semantics.exec state) ()
      with
      | r ->
          check_metric_conservation ~what r;
          true
      | exception exn ->
          fail "%s: engine raised %s (must trap cleanly)" what
            (Printexc.to_string exn))

(* ------------------------------------------------------------------ *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "fuzz"
    [
      ( "toy-vm",
        [
          qt
            (QCheck.Test.make ~count:program_count ~name:"random programs"
               seed_arb prop_toy_program);
          qt
            (QCheck.Test.make
               ~count:(max 20 (program_count / 50))
               ~name:"oracle agreement" seed_arb prop_toy_program_oracle);
          qt
            (QCheck.Test.make ~count:program_count
               ~name:"translated loop vs legacy loop" seed_arb
               prop_toy_translated_vs_legacy);
          qt
            (QCheck.Test.make
               ~count:(max 20 (program_count / 50))
               ~name:"audit counter conservation" seed_arb
               prop_audit_counter_conservation);
        ] );
      ( "forth",
        [
          qt
            (QCheck.Test.make ~count:forth_count ~name:"random programs"
               seed_arb prop_forth_program);
          qt
            (QCheck.Test.make ~count:forth_count ~name:"mutated sources"
               seed_arb prop_forth_mutated);
        ] );
      ( "jvm-image",
        [
          Alcotest.test_case "encode/decode round-trip" `Quick
            test_image_roundtrip;
          qt
            (QCheck.Test.make ~count:image_count ~name:"mutated images"
               seed_arb prop_image_mutated);
        ] );
    ]
