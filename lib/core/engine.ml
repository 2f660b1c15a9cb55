open Vmbp_vm
open Vmbp_machine

type exec = Program.t -> int -> Control.t

type result = {
  metrics : Metrics.t;
  cycles : float;
  seconds : float;
  steps : int;
  trapped : string option;
}

type sink = {
  on_dispatch : branch:int -> target:int -> opcode:int -> vm_transfer:bool -> unit;
  on_fetch : addr:int -> bytes:int -> opcode:int -> unit;
}

let out_of_fuel = "out of fuel"
let pc_out_of_range = "pc out of range"

(* Whether the instruction in [slot] is a VM-level control transfer, for
   attributing mispredictions to VM branches (Section 7.3). *)
let slot_is_transfer program slot =
  match (Program.instr_at program slot).Instr.branch with
  | Instr.Straight -> false
  | Instr.Cond_branch _ | Instr.Uncond_branch _ | Instr.Indirect_branch
  | Instr.Call _ | Instr.Indirect_call | Instr.Return | Instr.Stop ->
      true

(* ------------------------------------------------------------------ *)
(* Decode-once translation.

   A translation is the enriched, pre-decoded form of one layout: every
   per-slot fact a run emits events from -- code addresses and sizes for
   the I-cache, dispatch branch addresses, retired-instruction counts, the
   (possibly quickened) opcode and its branch classification -- is pulled
   out of the option-typed {!Code_layout.site} records once and stored in
   parallel int arrays co-allocated with each other, so a path walk
   ({!Path_walk}) hands whole columns to the simulators' range kernels
   instead of a record load plus an option match per slot.  Dispatches
   that do not exist encode as address [-1].

   Quickening rewrites sites while the program runs, so a translation is
   kept consistent by block-scoped invalidation: [t_inv_lo]/[t_inv_hi]
   record, per slot, the straight-line run (delimited by control-transfer
   instructions) the slot belonged to at translation time.  Every layout
   repair a quickening can trigger -- retargeting the quickened slot
   (dynamic and subroutine techniques) or re-assembling the enclosing
   basic block (static superinstruction re-parse) -- stays inside that
   run, because basic blocks never span a control transfer, so re-reading
   exactly that slot range after {!Code_layout.quicken} restores
   translation = layout without touching the rest of the stream. *)

type translation = {
  t_n : int;
  t_shadow : bool;  (* decoded from the layout's shadow sites *)
  t_entry : int array;  (* site entry_addr *)
  t_fetch_addr : int array;
  t_fetch_bytes : int array;
  t_work : int array;  (* retired native instructions of the work *)
  t_opcode : int array;  (* current opcode; refreshed by quickening *)
  t_transfer : bool array;  (* branch classification, ditto *)
  t_pre_addr : int array;  (* pre_dispatch branch addr; -1 = none *)
  t_pre_instrs : int array;
  t_fall_addr : int array;  (* post_fall branch addr; -1 = none *)
  t_fall_instrs : int array;
  t_taken_addr : int array;  (* post_taken branch addr; -1 = none *)
  t_taken_instrs : int array;
  t_fall_extra : int array;  (* kept ip increment when post_fall elided *)
  t_call_addr : int array;  (* subroutine threading's native call *)
  t_call_bytes : int array;  (* 0 = none *)
  t_inv_lo : int array;  (* quicken invalidation range (fixed) *)
  t_inv_hi : int array;
}

(* Decode one slot of the layout into the parallel arrays. *)
let translate_slot tr (layout : Code_layout.t) k =
  let program = layout.Code_layout.program in
  let s =
    if tr.t_shadow then layout.Code_layout.shadow.(k)
    else layout.Code_layout.sites.(k)
  in
  tr.t_entry.(k) <- s.Code_layout.entry_addr;
  tr.t_fetch_addr.(k) <- s.Code_layout.fetch_addr;
  tr.t_fetch_bytes.(k) <- s.Code_layout.fetch_bytes;
  tr.t_work.(k) <- s.Code_layout.work_instrs;
  tr.t_opcode.(k) <- program.Program.code.(k).Program.opcode;
  tr.t_transfer.(k) <- slot_is_transfer program k;
  (match s.Code_layout.pre_dispatch with
  | Some d ->
      tr.t_pre_addr.(k) <- d.Code_layout.branch_addr;
      tr.t_pre_instrs.(k) <- d.Code_layout.instrs
  | None ->
      tr.t_pre_addr.(k) <- -1;
      tr.t_pre_instrs.(k) <- 0);
  (match s.Code_layout.post_fall with
  | Some d ->
      tr.t_fall_addr.(k) <- d.Code_layout.branch_addr;
      tr.t_fall_instrs.(k) <- d.Code_layout.instrs
  | None ->
      tr.t_fall_addr.(k) <- -1;
      tr.t_fall_instrs.(k) <- 0);
  (match s.Code_layout.post_taken with
  | Some d ->
      tr.t_taken_addr.(k) <- d.Code_layout.branch_addr;
      tr.t_taken_instrs.(k) <- d.Code_layout.instrs
  | None ->
      tr.t_taken_addr.(k) <- -1;
      tr.t_taken_instrs.(k) <- 0);
  tr.t_fall_extra.(k) <- s.Code_layout.fall_extra_instrs;
  tr.t_call_addr.(k) <- s.Code_layout.call_fetch_addr;
  tr.t_call_bytes.(k) <- s.Code_layout.call_fetch_bytes

let translate_sites ~shadow (layout : Code_layout.t) =
  let n = Program.length layout.Code_layout.program in
  let mk () = Array.make n 0 in
  let tr =
    {
      t_n = n;
      t_shadow = shadow;
      t_entry = mk ();
      t_fetch_addr = mk ();
      t_fetch_bytes = mk ();
      t_work = mk ();
      t_opcode = mk ();
      t_transfer = Array.make n false;
      t_pre_addr = mk ();
      t_pre_instrs = mk ();
      t_fall_addr = mk ();
      t_fall_instrs = mk ();
      t_taken_addr = mk ();
      t_taken_instrs = mk ();
      t_fall_extra = mk ();
      t_call_addr = mk ();
      t_call_bytes = mk ();
      t_inv_lo = mk ();
      t_inv_hi = mk ();
    }
  in
  for k = 0 to n - 1 do
    translate_slot tr layout k
  done;
  (* Straight-line runs at translation time.  These bound every site a
     quickening can repair (see the type comment), and the bound stays
     valid even if later quickenings change a slot's branch classification:
     the technique's own basic-block structure was fixed when the layout
     was built, from this same pre-run classification. *)
  let lo = ref 0 in
  for k = 0 to n - 1 do
    if tr.t_transfer.(k) || k = n - 1 then begin
      for j = !lo to k do
        tr.t_inv_lo.(j) <- !lo;
        tr.t_inv_hi.(j) <- k
      done;
      lo := k + 1
    end
  done;
  tr

let translate layout = translate_sites ~shadow:false layout
let translate_shadow layout = translate_sites ~shadow:true layout

(* Re-read everything a quickening of [slot] may have repaired. *)
let retranslate tr layout slot =
  for j = tr.t_inv_lo.(slot) to tr.t_inv_hi.(slot) do
    translate_slot tr layout j
  done

let translation_equal (a : translation) (b : translation) =
  (* Every field is an int, int array or bool array, so structural
     equality compares the complete decoded stream. *)
  a = b

(* ------------------------------------------------------------------ *)
(* The interpreter loop: one iteration per executed VM instruction, every
   per-slot fact read from the layout's option-typed site records (the
   paper's Section 3 plain-interpreter shape).  Every live run goes
   through it; every other run walks a recorded path ({!Path_walk}).

   Stop state is an immediate int ([0] running, [1] finished, [2]
   trapped) with the trap message in a ref beside it, so the loop test is
   one int compare ([dev/hotpath_lint.py] keeps polymorphic compares out
   of this function). *)

let stop_running = 0
let stop_finished = 1
let stop_trapped = 2

let run_events ?(fuel = max_int) ?translation ~metrics:(m : Metrics.t)
    ~layout ~exec ~sink () =
  let program = layout.Code_layout.program in
  let n = Program.length program in
  (match translation with
  | Some tr when tr.t_n <> n ->
      invalid_arg "Engine.run_events: translation does not match layout"
  | Some _ | None -> ());
  let sites = layout.Code_layout.sites in
  let shadow = layout.Code_layout.shadow in
  let shadow_until = layout.Code_layout.shadow_until in
  let dispatch_bytes =
    layout.Code_layout.costs.Costs.threaded_dispatch_bytes
  in
  let on_dispatch = sink.on_dispatch and on_fetch = sink.on_fetch in
  let pending = ref (-1) in
  let pending_vmt = ref false in
  let transfer = Array.init n (slot_is_transfer program) in
  (* side-entry emulation for static superinstructions crossing basic
     blocks: while [shadow_lo <= pc <= shadow_hi], non-replicated code
     runs (Figure 6) *)
  let shadow_lo = ref 0 and shadow_hi = ref (-1) in
  let pc = ref program.Program.entry in
  let steps = ref 0 in
  let stop = ref stop_running in
  let trap_msg = ref out_of_fuel in
  while !stop = stop_running do
    (* Exhausting the fuel is a reported stop, not an exception: the
       accumulated metrics of the truncated run stay observable. *)
    if !steps >= fuel then begin
      trap_msg := out_of_fuel;
      stop := stop_trapped
    end
    else begin
      let i = !pc in
      (* Loaded (possibly hostile) code can fall off the end of the program
         or jump outside it; both must surface as a reported trap, never as
         an [Array] exception escaping the engine. *)
      if i < 0 || i >= n then begin
        trap_msg := pc_out_of_range;
        stop := stop_trapped
      end
      else begin
        if !shadow_hi >= 0 && (i < !shadow_lo || i > !shadow_hi) then
          shadow_hi := -1;
        let site = if !shadow_hi >= 0 then shadow.(i) else sites.(i) in
        (* Capture the site before executing: quickening rewrites it, and
           the step that quickens still accounts the pre-quickening site. *)
        let entry_addr = site.Code_layout.entry_addr in
        let fetch_addr = site.Code_layout.fetch_addr in
        let post_fall = site.Code_layout.post_fall in
        let post_taken = site.Code_layout.post_taken in
        let fall_extra = site.Code_layout.fall_extra_instrs in
        let opcode = program.Program.code.(i).Program.opcode in
        let is_transfer = transfer.(i) in
        (* Resolve the dispatch that brought control here. *)
        if !pending >= 0 then begin
          m.Metrics.dispatches <- m.Metrics.dispatches + 1;
          m.Metrics.indirect_branches <- m.Metrics.indirect_branches + 1;
          on_dispatch ~branch:!pending ~target:entry_addr ~opcode
            ~vm_transfer:!pending_vmt
        end;
        (* Gap dispatch of a not-yet-quickened instruction inside a
           dynamic superinstruction: jumps from the gap to the original
           routine. *)
        (match site.Code_layout.pre_dispatch with
        | Some d ->
            on_fetch ~addr:entry_addr ~bytes:dispatch_bytes ~opcode;
            m.Metrics.native_instrs <-
              m.Metrics.native_instrs + d.Code_layout.instrs;
            m.Metrics.dispatches <- m.Metrics.dispatches + 1;
            m.Metrics.indirect_branches <- m.Metrics.indirect_branches + 1;
            on_dispatch ~branch:d.Code_layout.branch_addr ~target:fetch_addr
              ~opcode ~vm_transfer:false
        | None -> ());
        if site.Code_layout.call_fetch_bytes > 0 then
          on_fetch ~addr:site.Code_layout.call_fetch_addr
            ~bytes:site.Code_layout.call_fetch_bytes ~opcode;
        on_fetch ~addr:fetch_addr ~bytes:site.Code_layout.fetch_bytes ~opcode;
        m.Metrics.native_instrs <-
          m.Metrics.native_instrs + site.Code_layout.work_instrs;
        m.Metrics.vm_instrs <- m.Metrics.vm_instrs + 1;
        incr steps;
        let control =
          match exec program i with
          | Control.Quicken q ->
              Code_layout.quicken layout ~slot:i
                ~new_opcode:q.Control.new_opcode
                ~new_operands:q.Control.new_operands;
              (* The quick form may classify differently; this step
                 already captured the pre-quickening [is_transfer]. *)
              transfer.(i) <- slot_is_transfer program i;
              m.Metrics.quickenings <- m.Metrics.quickenings + 1;
              q.Control.after
          | control -> control
        in
        match control with
        | Control.Next ->
            (match post_fall with
            | Some d ->
                m.Metrics.native_instrs <-
                  m.Metrics.native_instrs + d.Code_layout.instrs;
                pending := d.Code_layout.branch_addr;
                pending_vmt := is_transfer
            | None ->
                m.Metrics.native_instrs <- m.Metrics.native_instrs + fall_extra;
                pending := -1);
            pc := i + 1
        | Control.Jump target ->
            (match post_taken with
            | Some d ->
                m.Metrics.native_instrs <-
                  m.Metrics.native_instrs + d.Code_layout.instrs;
                pending := d.Code_layout.branch_addr;
                pending_vmt := is_transfer
            | None ->
                (* A layout must provide a dispatch on every taken path. *)
                assert false);
            (* An out-of-range target is trapped by the bounds check
               above; only guard the shadow lookup. *)
            if target >= 0 && target < n && shadow_until.(target) >= 0
            then begin
              shadow_lo := target;
              shadow_hi := shadow_until.(target)
            end
            else shadow_hi := -1;
            pc := target
        | Control.Halt -> stop := stop_finished
        | Control.Trap msg ->
            trap_msg := msg;
            stop := stop_trapped
        | Control.Quicken _ ->
            (* [exec] resolved the outer quickening above; nested
               quickening is not meaningful. *)
            trap_msg := "nested quickening";
            stop := stop_trapped
      end
    end
  done;
  (!steps, if !stop = stop_trapped then Some !trap_msg else None)

let run ?fuel ?translation ~config ~layout ~exec () =
  let cpu = config.Config.cpu in
  let m = Metrics.create () in
  let predictor = Predictor.create (Config.predictor_kind config) in
  let icache = Icache.create cpu.Cpu_model.icache in
  let hits = ref 0 and misses = ref 0 in
  (* Live runs only (oracles, audits, fallbacks): every other run walks
     the workload's path ({!Path_walk}). *)
  let on_dispatch ~branch ~target ~opcode ~vm_transfer =
    if not (Predictor.access predictor ~branch ~target ~opcode) then begin
      m.Metrics.mispredicts <- m.Metrics.mispredicts + 1;
      if vm_transfer then
        m.Metrics.vm_branch_mispredicts <- m.Metrics.vm_branch_mispredicts + 1
    end
  in
  let sink =
    {
      on_dispatch;
      on_fetch =
        (fun ~addr ~bytes ~opcode:_ ->
          Icache.fetch icache ~addr ~bytes ~hits ~misses);
    }
  in
  let steps, trapped =
    run_events ?fuel ?translation ~metrics:m ~layout ~exec ~sink ()
  in
  m.Metrics.icache_fetches <- !hits + !misses;
  m.Metrics.icache_misses <- !misses;
  m.Metrics.code_bytes <- layout.Code_layout.runtime_code_bytes;
  {
    metrics = m;
    cycles = Cpu_model.cycles cpu m;
    seconds = Cpu_model.seconds cpu m;
    steps;
    trapped;
  }

let run_functional ?(fuel = max_int) ?exec_counts ~program ~exec () =
  let n = Program.length program in
  let has_counts = exec_counts <> None in
  let counts = match exec_counts with Some c -> c | None -> [||] in
  let pc = ref program.Program.entry in
  let steps = ref 0 in
  let stop = ref stop_running in
  let trap_msg = ref out_of_fuel in
  while !stop = stop_running do
    if !steps >= fuel then begin
      trap_msg := out_of_fuel;
      stop := stop_trapped
    end
    else if !pc < 0 || !pc >= n then begin
      trap_msg := pc_out_of_range;
      stop := stop_trapped
    end
    else begin
      let i = !pc in
      incr steps;
      if has_counts then counts.(i) <- counts.(i) + 1;
      let control =
        match exec program i with
        | Control.Quicken q ->
            let slot = program.Program.code.(i) in
            slot.Program.opcode <- q.Control.new_opcode;
            slot.Program.operands <- q.Control.new_operands;
            q.Control.after
        | control -> control
      in
      match control with
      | Control.Next -> pc := i + 1
      | Control.Jump target -> pc := target
      | Control.Halt -> stop := stop_finished
      | Control.Trap msg ->
          trap_msg := msg;
          stop := stop_trapped
      | Control.Quicken _ ->
          trap_msg := "nested quickening";
          stop := stop_trapped
    end
  done;
  (!steps, if !stop = stop_trapped then Some !trap_msg else None)
