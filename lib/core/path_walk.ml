open Vmbp_vm
open Vmbp_machine

(* A block holds at most [Slot_ranges.max_ranges] ranges and this many
   steps; each configuration runs the whole block before the next one
   starts, so the block and the columns it touches stay cache-resident. *)
let block_steps = 65536

(* One column set: a translation, the kernels' view of its arrays,
   prefix sums over slots [0 .. k-1] of what a slot that falls through
   retires -- pre-dispatch, work and fall-through instructions, and its
   pre-dispatch and fall-through dispatches -- and the I-cache line
   columns of its arrays, one per distinct line size of the walk. *)
type cols = {
  tr : Engine.translation;
  kernel : Slot_ranges.columns;
  native : int array;
  dispatches : int array;
  lines : Icache.lines array;
}

(* Recompute the prefix sums from slot [from] on. *)
let fill_prefix c from =
  let tr = c.tr in
  for k = from to tr.Engine.t_n - 1 do
    let fall = tr.Engine.t_fall_addr.(k) in
    c.native.(k + 1) <-
      c.native.(k) + tr.Engine.t_pre_instrs.(k) + tr.Engine.t_work.(k)
      + (if fall >= 0 then tr.Engine.t_fall_instrs.(k)
         else tr.Engine.t_fall_extra.(k));
    c.dispatches.(k + 1) <-
      c.dispatches.(k)
      + (if tr.Engine.t_pre_addr.(k) >= 0 then 1 else 0)
      + if fall >= 0 then 1 else 0
  done

let make_cols (layout : Code_layout.t) (tr : Engine.translation) line_sizes =
  let kernel =
    {
      Slot_ranges.entry = tr.Engine.t_entry;
      fetch_addr = tr.Engine.t_fetch_addr;
      fetch_bytes = tr.Engine.t_fetch_bytes;
      opcode = tr.Engine.t_opcode;
      transfer = tr.Engine.t_transfer;
      pre_addr = tr.Engine.t_pre_addr;
      fall_addr = tr.Engine.t_fall_addr;
      call_addr = tr.Engine.t_call_addr;
      call_bytes = tr.Engine.t_call_bytes;
      dispatch_bytes = layout.Code_layout.costs.Costs.threaded_dispatch_bytes;
    }
  in
  let zeros () = Array.make (tr.Engine.t_n + 1) 0 in
  let c =
    {
      tr;
      kernel;
      native = zeros ();
      dispatches = zeros ();
      lines =
        Array.map (fun line_bytes -> Icache.lines ~line_bytes kernel) line_sizes;
    }
  in
  fill_prefix c 0;
  c

(* The walk's state.  The path cursor is entry [next] of the packed
   stream with [left] of its [Next]s still to run; the rest mirrors the
   live loop's registers (see {!Engine.run_events}). *)
type state = {
  n : int;
  main : cols;
  shadow : cols;  (* [== main] when the layout has no distinct shadow sites *)
  shadow_until : int array;
  block : Slot_ranges.t;
  entries : int array;
  fuel : int;
  mutable next : int;
  mutable left : int;
  mutable pc : int;
  mutable steps : int;
  mutable in_block : int;  (* steps of the ranges in [block] *)
  mutable pending : int;  (* branch of the dispatch into [pc]; -1 = none *)
  mutable pending_transfer : bool;
  mutable shadow_lo : int;
  mutable shadow_hi : int;  (* -1 = no shadow window *)
  mutable native : int;
  mutable dispatches : int;
  mutable quickenings : int;
  mutable stopped : bool;
  mutable trapped : string option;
}

let stop st msg =
  st.stopped <- true;
  st.trapped <- msg

let[@inline] fall_through st ~hi ~addr ~instrs ~extra ~transfer =
  if addr >= 0 then begin
    st.native <- st.native + instrs;
    st.pending <- addr;
    st.pending_transfer <- transfer
  end
  else begin
    st.native <- st.native + extra;
    st.pending <- -1
  end;
  st.pc <- hi + 1

let[@inline] jump st ~addr ~instrs ~transfer target =
  (* A layout must provide a dispatch on every taken path. *)
  if addr < 0 then assert false;
  st.native <- st.native + instrs;
  st.pending <- addr;
  st.pending_transfer <- transfer;
  if target >= 0 && target < st.n && Array.unsafe_get st.shadow_until target >= 0
  then begin
    st.shadow_lo <- target;
    st.shadow_hi <- Array.unsafe_get st.shadow_until target
  end
  else st.shadow_hi <- -1;
  st.pc <- target

(* The outcome of slot [hi], applied through its site as it stands now --
   also later, once a quickening has rewritten the site. *)
let settle st c hi =
  let tr = c.tr in
  let fall_addr = tr.Engine.t_fall_addr.(hi)
  and fall_instrs = tr.Engine.t_fall_instrs.(hi)
  and fall_extra = tr.Engine.t_fall_extra.(hi)
  and taken_addr = tr.Engine.t_taken_addr.(hi)
  and taken_instrs = tr.Engine.t_taken_instrs.(hi)
  and transfer = tr.Engine.t_transfer.(hi) in
  function
  | Control.Next ->
      fall_through st ~hi ~addr:fall_addr ~instrs:fall_instrs
        ~extra:fall_extra ~transfer
  | Control.Jump target ->
      jump st ~addr:taken_addr ~instrs:taken_instrs ~transfer target
  | Control.Halt -> stop st None
  | Control.Trap msg -> stop st (Some msg)
  | Control.Quicken _ -> stop st (Some "nested quickening")

(* Append the range that starts at [st.pc] (in bounds, with fuel left) to
   the block and account its deterministic counters.  The range runs the
   cursor's [Next]s up to the next stored outcome, clipped at the fuel
   limit, the block's room, the last slot and the shadow window's end; a
   clipped range ends in a fall-through.  A fall-through or an in-range
   jump is applied here and the result is [-1]; for any other outcome the
   result is its side-table index, and the caller applies it (the range's
   columns and last slot are [range_cols st] and [st.pc]). *)
let range st =
  let lo = st.pc in
  if st.shadow_hi >= 0 && (lo < st.shadow_lo || lo > st.shadow_hi) then
    st.shadow_hi <- -1;
  let in_shadow = st.shadow_hi >= 0 in
  let c = if in_shadow then st.shadow else st.main in
  let tr = c.tr in
  let room =
    let fuel = st.fuel - st.steps and block = block_steps - st.in_block in
    if fuel < block then fuel else block
  in
  let lim =
    let lim = lo + room - 1 in
    let lim = if lim > st.n - 1 then st.n - 1 else lim in
    if in_shadow && lim > st.shadow_hi then st.shadow_hi else lim
  in
  let natural = lo + st.left in
  let hi = if natural <= lim then natural else lim in
  let b = st.block in
  let r = b.Slot_ranges.len in
  Array.unsafe_set b.Slot_ranges.lo r lo;
  Array.unsafe_set b.Slot_ranges.hi r hi;
  Array.unsafe_set b.Slot_ranges.enter r st.pending;
  Array.unsafe_set b.Slot_ranges.enter_transfer r st.pending_transfer;
  Array.unsafe_set b.Slot_ranges.in_shadow r in_shadow;
  b.Slot_ranges.len <- r + 1;
  let len = hi - lo + 1 in
  st.steps <- st.steps + len;
  st.in_block <- st.in_block + len;
  (* Slots lo .. hi-1 fell through; hi's pre-dispatch and work count here,
     its outcome below. *)
  st.native <-
    st.native
    + Array.unsafe_get c.native hi
    - Array.unsafe_get c.native lo
    + Array.unsafe_get tr.Engine.t_pre_instrs hi
    + Array.unsafe_get tr.Engine.t_work hi;
  st.dispatches <-
    st.dispatches
    + (if st.pending >= 0 then 1 else 0)
    + Array.unsafe_get c.dispatches hi
    - Array.unsafe_get c.dispatches lo
    + if Array.unsafe_get tr.Engine.t_pre_addr hi >= 0 then 1 else 0;
  if natural > lim then begin
    st.left <- st.left - len;
    fall_through st ~hi
      ~addr:(Array.unsafe_get tr.Engine.t_fall_addr hi)
      ~instrs:(Array.unsafe_get tr.Engine.t_fall_instrs hi)
      ~extra:(Array.unsafe_get tr.Engine.t_fall_extra hi)
      ~transfer:(Array.unsafe_get tr.Engine.t_transfer hi);
    -1
  end
  else begin
    let entries = st.entries in
    let code = Array.unsafe_get entries st.next land Vm_path.code_mask in
    (* At the end marker the cursor stays put, as the replayer's does. *)
    if st.next < Array.length entries - 1 then begin
      st.next <- st.next + 1;
      st.left <- Array.unsafe_get entries st.next lsr Vm_path.code_bits
    end
    else st.left <- 0;
    if code < st.n then begin
      jump st
        ~addr:(Array.unsafe_get tr.Engine.t_taken_addr hi)
        ~instrs:(Array.unsafe_get tr.Engine.t_taken_instrs hi)
        ~transfer:(Array.unsafe_get tr.Engine.t_transfer hi)
        code;
      -1
    end
    else begin
      st.pc <- hi;
      code - st.n
    end
  end

let range_cols st = if st.shadow_hi >= 0 then st.shadow else st.main

type counts = {
  base : Metrics.t;
  steps : int;
  trapped : string option;
  code_bytes : int;
  mispredicts : int array;
  vm_branch_mispredicts : int array;
  icache_fetches : int array;
  icache_misses : int array;
}

(* The distinct line sizes of [icaches] in first-occurrence order, and
   the index of each cache's among them. *)
let line_sizes icaches =
  let sizes = ref [||] in
  let index =
    Array.map
      (fun ic ->
        let lb = (Icache.config ic).Icache.line_bytes in
        match Array.find_index (fun s -> s = lb) !sizes with
        | Some i -> i
        | None ->
            sizes := Array.append !sizes [| lb |];
            Array.length !sizes - 1)
      icaches
  in
  (!sizes, index)

let walk ?(fuel = max_int) ?translation ~path ~layout ~predictors ~icaches ()
    =
  let n = Program.length layout.Code_layout.program in
  if Vm_path.slots path <> n then
    invalid_arg "Path_walk.walk: the path was recorded over another program";
  let tr =
    match translation with
    | Some (tr : Engine.translation) ->
        if tr.Engine.t_n <> n || tr.Engine.t_shadow then
          invalid_arg "Path_walk.walk: translation does not match layout";
        tr
    | None -> Engine.translate layout
  in
  let sizes, size_of = line_sizes icaches in
  let main = make_cols layout tr sizes in
  let shadow =
    if layout.Code_layout.shadow == layout.Code_layout.sites then main
    else make_cols layout (Engine.translate_shadow layout) sizes
  in
  let entries = Vm_path.entries path in
  let st =
    {
      n;
      main;
      shadow;
      shadow_until = layout.Code_layout.shadow_until;
      block = Slot_ranges.create ~main:main.kernel ~shadow:shadow.kernel;
      entries;
      fuel;
      next = 0;
      left = entries.(0) lsr Vm_path.code_bits;
      pc = layout.Code_layout.program.Program.entry;
      steps = 0;
      in_block = 0;
      pending = -1;
      pending_transfer = false;
      shadow_lo = 0;
      shadow_hi = -1;
      native = 0;
      dispatches = 0;
      quickenings = 0;
      stopped = false;
      trapped = None;
    }
  in
  let counters k = Array.init k (fun _ -> ref 0) in
  let np = Array.length predictors and ni = Array.length icaches in
  let mis = counters np and vm_mis = counters np in
  let hits = counters ni and misses = counters ni in
  (* Config-major: each simulator runs the whole block in turn. *)
  let flush () =
    let b = st.block in
    for j = 0 to np - 1 do
      Predictor.run_ranges predictors.(j) b ~mis:mis.(j) ~vm_mis:vm_mis.(j)
    done;
    for j = 0 to ni - 1 do
      let s = size_of.(j) in
      Icache.run_ranges icaches.(j) b ~main:main.lines.(s)
        ~shadow:shadow.lines.(s) ~hits:hits.(j) ~misses:misses.(j)
    done;
    b.Slot_ranges.len <- 0;
    st.in_block <- 0
  in
  while not st.stopped do
    if st.steps >= fuel then stop st (Some Engine.out_of_fuel)
    else if st.pc < 0 || st.pc >= n then stop st (Some Engine.pc_out_of_range)
    else begin
      let side = range st in
      if side >= 0 then begin
        let hi = st.pc in
        let outcome = settle st (range_cols st) hi in
        match Vm_path.side path side with
        | Control.Quicken q ->
            (* The step leaves through the pre-quickening site, and the
               block's ranges read the columns as they stood. *)
            flush ();
            Code_layout.quicken layout ~slot:hi
              ~new_opcode:q.Control.new_opcode
              ~new_operands:q.Control.new_operands;
            List.iter
              (fun c ->
                Engine.retranslate c.tr layout hi;
                let from = c.tr.Engine.t_inv_lo.(hi) in
                fill_prefix c from;
                Array.iter (fun l -> Icache.fill_lines l from) c.lines)
              (if shadow == main then [ main ] else [ main; shadow ]);
            st.quickenings <- st.quickenings + 1;
            outcome q.Control.after
        | other -> outcome other
      end;
      if
        st.block.Slot_ranges.len = Slot_ranges.max_ranges
        || st.in_block >= block_steps
      then flush ()
    end
  done;
  flush ();
  let base = Metrics.create () in
  base.Metrics.vm_instrs <- st.steps;
  base.Metrics.native_instrs <- st.native;
  base.Metrics.dispatches <- st.dispatches;
  base.Metrics.indirect_branches <- st.dispatches;
  base.Metrics.quickenings <- st.quickenings;
  {
    base;
    steps = st.steps;
    trapped = st.trapped;
    code_bytes = layout.Code_layout.runtime_code_bytes;
    mispredicts = Array.map ( ! ) mis;
    vm_branch_mispredicts = Array.map ( ! ) vm_mis;
    icache_fetches = Array.mapi (fun j h -> !h + !(misses.(j))) hits;
    icache_misses = Array.map ( ! ) misses;
  }

let result counts ~cpu ~predictor ~icache =
  let m = Metrics.copy counts.base in
  m.Metrics.mispredicts <- counts.mispredicts.(predictor);
  m.Metrics.vm_branch_mispredicts <- counts.vm_branch_mispredicts.(predictor);
  m.Metrics.icache_fetches <- counts.icache_fetches.(icache);
  m.Metrics.icache_misses <- counts.icache_misses.(icache);
  m.Metrics.code_bytes <- counts.code_bytes;
  {
    Engine.metrics = m;
    cycles = Cpu_model.cycles cpu m;
    seconds = Cpu_model.seconds cpu m;
    steps = counts.steps;
    trapped = counts.trapped;
  }
