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
   - mutated JVM images (code slots, constant pool, entry slot), which
     [Program.make] must either reject or pass to a run that at worst
     traps cleanly under a fuel cap.

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

(* The interpreter loop against the two ways of re-running a recorded VM
   control path, on every generated program, under a technique drawn from
   the full grid (including the quickening dynamic ones, so the walk's
   incremental re-translation is fuzzed too) and a fuel budget that
   sometimes cuts the run short.  The live run records its path; a run
   cut short by fuel must keep none, and then a complete run's path is
   re-run under the same budget.  The same loop driven by the path must
   reproduce the live run's steps, trap, checksum, deterministic metrics
   and sink event stream, and a walk of the path ([Path_walk]) its steps,
   trap, checksum, metrics and what a predictor and an I-cache count. *)
let prop_toy_live_replayed_walked seed =
  let rng = rng_of_seed seed in
  let size = 8 + rand rng 56 in
  let program = Vmbp_toyvm.Toy_vm.random_program ~seed ~size in
  let technique = fuzz_techniques.(rand rng (Array.length fuzz_techniques)) in
  let full = 1_000_000 in
  let fuel = if rand rng 4 = 0 then 1 + rand rng 5_000 else full in
  let what =
    Printf.sprintf "live seed=%d size=%d fuel=%d %s" seed size fuel
      (Technique.name technique)
  in
  let cpu = Cpu_model.celeron_800 in
  let layout () =
    Config.build_layout (Config.make ~cpu technique)
      ~program:(Vmbp_vm.Program.copy program)
  in
  let run ~fuel drive =
    let layout = layout () in
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
    let exec =
      match drive with `Live -> recording | `Replayed p -> Vm_path.replayer p
    in
    let steps, trapped =
      Engine.run_events ~fuel ~metrics:m ~layout ~exec ~sink ()
    in
    let checksum =
      match drive with
      | `Replayed p -> int_of_string (Vm_path.output p)
      | `Live -> Vmbp_toyvm.Toy_vm.checksum state
    in
    let path =
      match drive with
      | `Live ->
          Result.to_option
            (Vm_path.finish recorder ~steps ~trapped
               ~output:(string_of_int checksum))
      | `Replayed _ -> None
    in
    ((steps, trapped, checksum, m, List.rev !events), path)
  in
  (* A path stores its complete run's output only, so a re-run cut short
     by fuel has no checksum of its own to compare. *)
  let cut = function Some t -> t = Engine.out_of_fuel | None -> false in
  let compare_runs what (s1, t1, k1, m1, e1) (s2, t2, k2, m2, e2) =
    if s1 <> s2 then fail "%s: steps %d vs %d" what s1 s2;
    if t1 <> t2 then
      fail "%s: trap %s vs %s" what
        (Option.value ~default:"-" t1)
        (Option.value ~default:"-" t2);
    if k1 <> k2 && not (cut t1) then fail "%s: checksum %d vs %d" what k1 k2;
    if m1 <> m2 then fail "%s: metrics differ" what;
    if e1 <> e2 then
      fail "%s: event streams differ (%d vs %d events)" what (List.length e1)
        (List.length e2)
  in
  (* The walk emits no events, so its counters are compared with what the
     live run's events give a fresh predictor and I-cache of the same
     CPU. *)
  let sims_of_events events =
    let p = Predictor.create cpu.Cpu_model.predictor in
    let ic = Icache.create cpu.Cpu_model.icache in
    let mis = ref 0 and vm = ref 0 and hits = ref 0 and misses = ref 0 in
    List.iter
      (fun (kind, a, b, opcode, vmt) ->
        if kind = 0 then begin
          if not (Predictor.access p ~branch:a ~target:b ~opcode) then begin
            incr mis;
            vm := !vm + vmt
          end
        end
        else Icache.fetch ic ~addr:a ~bytes:b ~hits ~misses)
      events;
    (!mis, !vm, !hits + !misses, !misses)
  in
  let walked p =
    let c =
      Path_walk.walk ~fuel ~path:p ~layout:(layout ())
        ~predictors:[| Predictor.create cpu.Cpu_model.predictor |]
        ~icaches:[| Icache.create cpu.Cpu_model.icache |]
        ()
    in
    ( c.Path_walk.steps,
      c.Path_walk.trapped,
      int_of_string (Vm_path.output p),
      c.Path_walk.base,
      ( c.Path_walk.mispredicts.(0),
        c.Path_walk.vm_branch_mispredicts.(0),
        c.Path_walk.icache_fetches.(0),
        c.Path_walk.icache_misses.(0) ) )
  in
  let live, own = run ~fuel `Live in
  let _, trapped, _, _, _ = live in
  let path =
    match own with
    | Some _ when cut trapped ->
        fail "%s: a run that ran out of fuel kept a path" what
    | Some p -> Some p
    | None when not (cut trapped) ->
        fail "%s: a run that did not run out of fuel kept no path" what
    | None -> if fuel < full then snd (run ~fuel:full `Live) else None
  in
  (match path with
  | None -> ()
  | Some p ->
      compare_runs (what ^ " replayed") (fst (run ~fuel (`Replayed p))) live;
      let s1, t1, k1, m1, e1 = live in
      let s2, t2, k2, m2, sims = walked p in
      let what = what ^ " walked" in
      if s1 <> s2 then fail "%s: steps %d vs %d" what s1 s2;
      if t1 <> t2 then fail "%s: trap differs" what;
      if k1 <> k2 && not (cut t1) then fail "%s: checksum %d vs %d" what k1 k2;
      if m1 <> m2 then fail "%s: metrics differ" what;
      if sims_of_events e1 <> sims then
        fail "%s: simulator counts differ" what);
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
(* 3. Mutated JVM images *)

(* [db] and [jack], the latter for its [tableswitch] jump table. *)
let base_images =
  lazy
    (Array.map
       (fun name ->
         match Vmbp_jvm.Jvm_workloads.find name with
         | Some w -> w.Vmbp_jvm.Jvm_workloads.build ~scale:1
         | None -> Alcotest.fail ("jvm workload '" ^ name ^ "' missing"))
       [| "db"; "jack" |])

(* What became of the mutants, printed when the suite exits. *)
let images_rejected = ref 0
let images_ran = ref 0
let images_trapped = ref 0

(* A value a mutation writes: near the old one, small, a slot index just
   inside or outside the code, or an extreme. *)
let wild rng ~old ~code_len =
  match rand rng 4 with
  | 0 -> old + rand rng 7 - 3
  | 1 -> rand rng 64 - 8
  | 2 -> rand rng (code_len + 8) - 4
  | _ -> if rand rng 2 = 0 then max_int else min_int

(* One random change to a copy of an image's code slots, constant pool
   and entry slot. *)
let mutate_image rng (code : Vmbp_vm.Program.slot array) cp entry =
  let open Vmbp_vm.Program in
  let code_len = Array.length code in
  let slot = code.(rand rng code_len) in
  let nops = Array.length slot.operands in
  match rand rng 6 with
  | 0 ->
      slot.opcode <-
        rand rng (Vmbp_vm.Instr_set.size Vmbp_jvm.Opcode.iset + 1)
  | 1 when nops > 0 ->
      let k = rand rng nops in
      slot.operands.(k) <- wild rng ~old:slot.operands.(k) ~code_len
  | 2 ->
      let n = if nops > 0 && rand rng 2 = 0 then nops - 1 else nops + 1 in
      slot.operands <-
        Array.init n (fun k -> if k < nops then slot.operands.(k) else 0)
  | 3 -> entry := wild rng ~old:!entry ~code_len
  | 4 ->
      let i = rand rng (Array.length cp) and j = rand rng (Array.length cp) in
      let e = cp.(i) in
      cp.(i) <- cp.(j);
      cp.(j) <- e
  | _ -> (
      let i = rand rng (Array.length cp) in
      match cp.(i) with
      | Vmbp_jvm.Classfile.CP_int v ->
          cp.(i) <- Vmbp_jvm.Classfile.CP_int (wild rng ~old:v ~code_len)
      | Vmbp_jvm.Classfile.CP_switch { lo; targets } ->
          let targets = Array.copy targets in
          let lo =
            if rand rng 2 = 0 then wild rng ~old:lo ~code_len
            else begin
              let k = rand rng (Array.length targets) in
              targets.(k) <- wild rng ~old:targets.(k) ~code_len;
              lo
            end
          in
          cp.(i) <- Vmbp_jvm.Classfile.CP_switch { lo; targets }
      | _ -> ())

let prop_image_mutated seed =
  let rng = rng_of_seed seed in
  let images = Lazy.force base_images in
  let base = images.(rand rng (Array.length images)) in
  let p = Vmbp_vm.Program.copy base.Vmbp_jvm.Runtime.program in
  let cp = Array.copy base.Vmbp_jvm.Runtime.cp in
  let entry = ref p.Vmbp_vm.Program.entry in
  for _ = 1 to 1 + rand rng 4 do
    mutate_image rng p.Vmbp_vm.Program.code cp entry
  done;
  (* The check [Runtime.link] ends with: opcodes, operand counts, branch
     targets and entry slots.  Its [Invalid_argument] rejects the
     mutant. *)
  match
    Vmbp_vm.Program.make ~name:p.Vmbp_vm.Program.name
      ~iset:Vmbp_jvm.Opcode.iset ~code:p.Vmbp_vm.Program.code ~entry:!entry
      ~entries:p.Vmbp_vm.Program.entries ()
  with
  | exception Invalid_argument _ ->
      incr images_rejected;
      true
  | program -> (
      (* Everything else -- pool indices and kinds, class, method, field,
         static and local indices, switch targets -- is the runtime's to
         trap on: running the mutant may trap but must never raise. *)
      incr images_ran;
      let image = { base with Vmbp_jvm.Runtime.cp; program } in
      let what = Printf.sprintf "image seed=%d" seed in
      let state = Vmbp_jvm.Runtime.create image in
      let config = Config.make ~cpu:Cpu_model.pentium4_northwood Technique.plain in
      let layout = Config.build_layout config ~program in
      match
        Engine.run ~fuel:200_000 ~config ~layout
          ~exec:(Vmbp_jvm.Semantics.exec state) ()
      with
      | r ->
          check_metric_conservation ~what r;
          (match r.Engine.trapped with
          | Some msg when msg <> Engine.out_of_fuel -> incr images_trapped
          | _ -> ());
          true
      | exception exn ->
          fail "%s: engine raised %s (must trap cleanly)" what
            (Printexc.to_string exn))

(* ------------------------------------------------------------------ *)

let () =
  at_exit (fun () ->
      if !images_rejected + !images_ran > 0 then
        Format.printf
          "jvm-image: %d mutants rejected by Program.make, %d ran (%d \
           trapped)@."
          !images_rejected !images_ran !images_trapped);
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
               ~name:"live vs replayed vs walked" seed_arb
               prop_toy_live_replayed_walked);
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
          qt
            (QCheck.Test.make ~count:image_count ~name:"mutated images"
               seed_arb prop_image_mutated);
        ] );
    ]
