open Vmbp_vm

type vm = Forth | Jvm

let vm_name = function Forth -> "forth" | Jvm -> "jvm"

type session = {
  exec : Vmbp_core.Engine.exec;
  output : unit -> string;
}

type loaded = {
  program : Program.t;
  fresh_session : unit -> session;
}

type t = {
  vm : vm;
  name : string;
  description : string;
  load : scale:int -> loaded;
}

(* Loading a workload is deterministic in (vm, name, scale); memoise so the
   sweeps do not recompile programs hundreds of times.  The parallel runner
   hits these tables from several domains at once, so every lookup-or-build
   holds a mutex; the computation runs under the lock so concurrent callers
   of the same key share one build.  [training_run] and [training_profile]
   below have their own locks because building a profile loads workloads
   and trains on them (lock order: profile before load and before
   training, never the reverse). *)

let memo : (string, loaded) Hashtbl.t = Hashtbl.create 32
let memo_lock = Mutex.create ()

let memoised key f =
  Mutex.protect memo_lock (fun () ->
      match Hashtbl.find_opt memo key with
      | Some loaded -> loaded
      | None ->
          let loaded = f () in
          Hashtbl.replace memo key loaded;
          loaded)

let of_forth (w : Vmbp_forth.Forth_workloads.t) =
  {
    vm = Forth;
    name = w.Vmbp_forth.Forth_workloads.name;
    description = w.Vmbp_forth.Forth_workloads.description;
    load =
      (fun ~scale ->
        memoised
          (Printf.sprintf "forth/%s/%d" w.Vmbp_forth.Forth_workloads.name scale)
          (fun () ->
            let source = w.Vmbp_forth.Forth_workloads.source ~scale in
            let program =
              Vmbp_forth.Compiler.compile
                ~name:w.Vmbp_forth.Forth_workloads.name source
            in
            {
              program;
              fresh_session =
                (fun () ->
                  let state = Vmbp_forth.State.create () in
                  {
                    exec = Vmbp_forth.Instruction_set.exec state;
                    output = (fun () -> Vmbp_forth.State.output state);
                  });
            }))
  }

let of_jvm (w : Vmbp_jvm.Jvm_workloads.t) =
  {
    vm = Jvm;
    name = w.Vmbp_jvm.Jvm_workloads.name;
    description = w.Vmbp_jvm.Jvm_workloads.description;
    load =
      (fun ~scale ->
        memoised
          (Printf.sprintf "jvm/%s/%d" w.Vmbp_jvm.Jvm_workloads.name scale)
          (fun () ->
            let image = w.Vmbp_jvm.Jvm_workloads.build ~scale in
            {
              program = image.Vmbp_jvm.Runtime.program;
              fresh_session =
                (fun () ->
                  let state = Vmbp_jvm.Runtime.create image in
                  {
                    exec = Vmbp_jvm.Semantics.exec state;
                    output = (fun () -> Vmbp_jvm.Runtime.output state);
                  });
            }))
  }

let forth = List.map of_forth Vmbp_forth.Forth_workloads.all
let jvm = List.map of_jvm Vmbp_jvm.Jvm_workloads.all
let all = forth @ jvm

let find ~vm name = List.find_opt (fun w -> w.vm = vm && w.name = name) all

(* One functional training run per loaded workload, on a copy of its
   program, keyed by the loaded workload's physical identity: the program
   after the run (every reachable quickable instruction in its quick
   form), the per-slot execution counts, the steps, the trap and the
   output.  Its budget is its own, not the report runner's. *)
type training = {
  quickened : Program.t;
  counts : int array;
  steps : int;
  trap : string option;
  printed : string;
}

let training_fuel = 500_000_000
let training_memo : (loaded * training) list ref = ref []
let training_lock = Mutex.create ()

let training_run loaded =
  Mutex.protect training_lock (fun () ->
      match List.assq_opt loaded !training_memo with
      | Some t -> t
      | None ->
          let program = Program.copy loaded.program in
          let session = loaded.fresh_session () in
          let counts = Array.make (Program.length program) 0 in
          let steps, trap =
            Vmbp_core.Engine.run_functional ~fuel:training_fuel
              ~exec_counts:counts ~program ~exec:session.exec ()
          in
          let t =
            {
              quickened = program;
              counts;
              steps;
              trap;
              printed = session.output ();
            }
          in
          training_memo := (loaded, t) :: !training_memo;
          t)

let run_reference loaded =
  let t = training_run loaded in
  (t.steps, t.trap, t.printed)

let quickened_program loaded = (training_run loaded).quickened

let profile_memo : (string, Profile.t) Hashtbl.t = Hashtbl.create 16
let profile_lock = Mutex.create ()

let training_profile ?(max_seq_len = 4) ~vm ~target ~scale () =
  let key =
    Printf.sprintf "%s/%s/%d/%d" (vm_name vm) target scale max_seq_len
  in
  Mutex.protect profile_lock (fun () ->
      match Hashtbl.find_opt profile_memo key with
      | Some p -> p
      | None ->
          let profile = Profile.empty ~max_seq_len in
          (match vm with
          | Forth ->
              (* Train on brainless, as the paper does; the profile is dynamic
                 (weighted by execution counts). *)
              let trainer =
                match find ~vm:Forth "brainless" with
                | Some w -> w
                | None -> assert false
              in
              let loaded = trainer.load ~scale:(max 1 (scale / 2)) in
              let t = training_run loaded in
              Profile.add_program ~weights:t.counts profile t.quickened
          | Jvm ->
              (* Leave-one-out static profiling over quickened programs. *)
              List.iter
                (fun w ->
                  if w.name <> target then
                    let loaded = w.load ~scale:1 in
                    Profile.add_program profile (quickened_program loaded))
                jvm);
          Hashtbl.replace profile_memo key profile;
          profile)
