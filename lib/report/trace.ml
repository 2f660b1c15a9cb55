open Vmbp_core
open Vmbp_machine

(* ------------------------------------------------------------------ *)
(* Chunked byte storage.

   Event tokens are appended to Bytes chunks, so a long run never
   reallocates or copies what it has already recorded, and the memory bound
   is enforced at chunk granularity: the recorder accounts every chunk it
   allocates against the caller's cap and aborts recording the moment the
   next allocation would exceed it.  Chunk sizes grow geometrically from
   8KB to 1MB: small traces stay small, while a long run settles into a
   handful of large chunks. *)

exception Overflow

let min_chunk_bits = 13 (* 8KB chunks *)
let max_chunk_bits = 20 (* 1MB chunks *)
let min_chunk_bytes = 1 lsl min_chunk_bits
let max_chunk_bytes = 1 lsl max_chunk_bits

(* Released chunks are recycled through per-size free lists instead of being
   handed back to the allocator: a full report cycles gigabytes of trace
   storage through the planner's cache, and returning that memory to the OS
   on every eviction costs far more kernel time (page-table teardown plus
   fault-in and re-zeroing at the next recording -- dramatically so under
   the paravirtualised kernels this repo is benchmarked on) than the whole
   simulation.  With the pool, each page is faulted in once per process and
   the resident high-water mark stays bounded by the cache cap plus the
   in-flight recordings. *)
let pool : Bytes.t list array = Array.make (max_chunk_bits + 1) []
let pool_lock = Mutex.create ()

let size_class bytes =
  let rec go k = if 1 lsl k >= bytes then k else go (k + 1) in
  go min_chunk_bits

type buf = {
  mutable filled : Bytes.t list;  (* completed chunks, newest first *)
  mutable cur : Bytes.t;
  mutable pos : int;  (* next free byte in [cur] *)
}

type budget = { mutable allocated : int; cap : int }

let charge budget bytes =
  budget.allocated <- budget.allocated + bytes;
  if budget.allocated > budget.cap then raise Overflow

let alloc_chunk budget bytes =
  charge budget bytes;
  let k = size_class bytes in
  Mutex.lock pool_lock;
  match pool.(k) with
  | c :: rest ->
      pool.(k) <- rest;
      Mutex.unlock pool_lock;
      (* Stale contents are fine: readers only see bytes below [pos]. *)
      c
  | [] ->
      Mutex.unlock pool_lock;
      Bytes.create bytes

let release_buf b =
  Mutex.lock pool_lock;
  List.iter
    (fun c ->
      if Bytes.length c > 0 then begin
        let k = size_class (Bytes.length c) in
        pool.(k) <- c :: pool.(k)
      end)
    (b.cur :: b.filled);
  Mutex.unlock pool_lock;
  b.filled <- [];
  b.cur <- Bytes.empty;
  b.pos <- 0

let buf_create budget =
  { filled = []; cur = alloc_chunk budget min_chunk_bytes; pos = 0 }

let buf_grow budget b =
  let next = min (Bytes.length b.cur * 4) max_chunk_bytes in
  let fresh = alloc_chunk budget next in
  b.filled <- b.cur :: b.filled;
  b.cur <- fresh;
  b.pos <- 0

(* Append one 3-byte little-endian token.  Chunks hold a whole number of
   tokens (chunk sizes have a spare tail below a multiple of 3), so no
   token ever straddles a chunk boundary. *)
let push_token budget b code =
  if b.pos + 3 > Bytes.length b.cur then buf_grow budget b;
  Bytes.unsafe_set b.cur b.pos (Char.unsafe_chr (code land 0xff));
  Bytes.unsafe_set b.cur (b.pos + 1) (Char.unsafe_chr ((code lsr 8) land 0xff));
  Bytes.unsafe_set b.cur (b.pos + 2) (Char.unsafe_chr ((code lsr 16) land 0xff));
  b.pos <- b.pos + 3

(* ------------------------------------------------------------------ *)
(* Dictionary coding.

   An interpreter run touches few distinct code addresses relative to how
   often it touches them: every executed instruction body, call stub and
   dispatch-table entry is fetched millions of times at the same (addr,
   bytes), and every dispatch site jumps to a bounded set of targets.  So
   each stream stores distinct events once in an append-only dictionary and
   the stream itself is 3-byte dictionary codes -- roughly a 3-5x size
   reduction over raw packed words, which is what keeps the planner's
   retained working set small enough to recycle (see the pool note above).
   A run that somehow exceeds 2^24 distinct events per stream aborts
   recording and the caller falls back to direct simulation, so coding can
   never silently corrupt a trace. *)

let max_codes = 1 lsl 24

(* Encoding runs once per event on the hot path, so a small direct-mapped
   cache sits in front of the hash table: interpreter loops repeat the same
   few events millions of times, so almost every lookup is a non-allocating
   array probe, and the tuple-keyed table only sees first occurrences and
   the occasional cache collision. *)

let memo_bits = 13
let memo_slots = 1 lsl memo_bits

type dict = {
  tbl : (int * int, int) Hashtbl.t;  (* (a, b) -> code, record-time only *)
  memo_a : int array;  (* direct-mapped front cache; -1 = empty (a >= 0) *)
  memo_b : int array;
  memo_codes : int array;
  mutable rev_a : int array;  (* code -> a *)
  mutable rev_b : int array;  (* code -> b *)
  mutable next : int;
}

let dict_create budget =
  charge budget ((2 * 1024 + 3 * memo_slots) * 8);
  {
    tbl = Hashtbl.create 1024;
    memo_a = Array.make memo_slots (-1);
    memo_b = Array.make memo_slots 0;
    memo_codes = Array.make memo_slots 0;
    rev_a = Array.make 1024 0;
    rev_b = Array.make 1024 0;
    next = 0;
  }

let dict_code_slow budget d a b slot =
  let code =
    match Hashtbl.find_opt d.tbl (a, b) with
    | Some code -> code
    | None ->
        let code = d.next in
        if code >= max_codes then raise Overflow;
        if code = Array.length d.rev_a then begin
          (* Double the reverse maps; the budget pays for the growth. *)
          charge budget (2 * code * 8);
          let grow arr =
            let fresh = Array.make (2 * code) 0 in
            Array.blit arr 0 fresh 0 code;
            fresh
          in
          d.rev_a <- grow d.rev_a;
          d.rev_b <- grow d.rev_b
        end;
        d.rev_a.(code) <- a;
        d.rev_b.(code) <- b;
        d.next <- code + 1;
        Hashtbl.replace d.tbl (a, b) code;
        code
  in
  Array.unsafe_set d.memo_a slot a;
  Array.unsafe_set d.memo_b slot b;
  Array.unsafe_set d.memo_codes slot code;
  code

let[@inline] dict_code budget d a b =
  let h = (a * 0x9E3779B1) + b in
  let slot = (h lxor (h lsr 17)) land (memo_slots - 1) in
  if
    Array.unsafe_get d.memo_a slot = a
    && Array.unsafe_get d.memo_b slot = b
  then Array.unsafe_get d.memo_codes slot
  else dict_code_slow budget d a b slot

(* ------------------------------------------------------------------ *)
(* Event packing (inside dictionary entries).

   A fetch entry is [a = addr, b = bytes].  A dispatch entry is [a =
   branch address, b = target lsl 17 lor opcode lsl 1 lor vm_transfer].
   The accepted widths are far beyond anything the memory layout produces;
   a run that somehow exceeds them aborts recording (the caller falls back
   to direct simulation). *)

let dispatch_opcode_bits = 16
let dispatch_target_limit = 1 lsl 45
let fetch_addr_limit = 1 lsl 42
let fetch_bytes_limit = 1 lsl 20

type t = {
  dispatch : buf;  (* 3-byte codes into [dispatch_dict] *)
  dispatch_dict : dict;
  fetch : buf;  (* 3-byte codes into [fetch_dict] *)
  fetch_dict : dict;
  n_dispatch : int;
  n_fetch : int;
  base : Metrics.t;
      (* deterministic counters of the recorded run; predictor- and
         I-cache-dependent fields are zero *)
  steps : int;
  trapped : string option;
  output : string;
  code_bytes : int;
  bytes : int;  (* bytes charged against the recording budget *)
  mutable live : bool;  (* false once [release]d; chunks may be recycled *)
  memo_lock : Mutex.t;
      (* Replay results are deterministic per simulator configuration, so
         sweeps that repeat a configuration (penalty sweeps vary only the
         cost model; BTB sweeps keep the I-cache fixed) pay for each
         distinct configuration once.  Keys are the canonical descriptor
         strings ({!Predictor.descriptor} / {!Icache.descriptor}), which
         are injective over configurations, so lookup is one hash probe
         instead of an O(configs) structural scan.  Inserts are
         add-if-absent under [memo_lock]: two domains that both simulated
         the same configuration keep one binding (the results are equal
         anyway -- simulation is deterministic). *)
  pred_memo : (string, int * int) Hashtbl.t;
      (* descriptor -> (mispredicts, vm_branch_mispredicts) *)
  icache_memo : (string, int * int) Hashtbl.t;
      (* descriptor -> (fetches, misses) *)
}

let record ?fuel ?poll ?translation ?(cap_bytes = max_int) ~layout ~exec ~output
    () =
  let budget = { allocated = 0; cap = cap_bytes } in
  let bufs = ref [] in
  try
    let mk () =
      let b = buf_create budget in
      bufs := b :: !bufs;
      b
    in
    let dispatch = mk () in
    let fetch = mk () in
    let dispatch_dict = dict_create budget in
    let fetch_dict = dict_create budget in
    let n_dispatch = ref 0 and n_fetch = ref 0 in
    let m = Metrics.create () in
    let sink =
      {
        Engine.on_dispatch =
          (fun ~branch ~target ~opcode ~vm_transfer ->
            if
              branch < 0 || target < 0
              || target >= dispatch_target_limit
              || opcode < 0
              || opcode >= 1 lsl dispatch_opcode_bits
            then raise Overflow;
            let meta =
              (target lsl (dispatch_opcode_bits + 1))
              lor (opcode lsl 1)
              lor (if vm_transfer then 1 else 0)
            in
            push_token budget dispatch
              (dict_code budget dispatch_dict branch meta);
            incr n_dispatch);
        Engine.on_fetch =
          (fun ~addr ~bytes ~opcode:_ ->
            if
              addr < 0
              || addr >= fetch_addr_limit
              || bytes < 0
              || bytes >= fetch_bytes_limit
            then raise Overflow;
            push_token budget fetch (dict_code budget fetch_dict addr bytes);
            incr n_fetch);
      }
    in
    let steps, trapped =
      Engine.run_events ?fuel ?poll ?translation ~metrics:m ~layout ~exec
        ~sink ()
    in
    (* The hash tables only serve encoding; drop them before retention. *)
    Hashtbl.reset dispatch_dict.tbl;
    Hashtbl.reset fetch_dict.tbl;
    Some
      {
        dispatch;
        dispatch_dict;
        fetch;
        fetch_dict;
        n_dispatch = !n_dispatch;
        n_fetch = !n_fetch;
        base = m;
        steps;
        trapped;
        output = output ();
        code_bytes = layout.Code_layout.runtime_code_bytes;
        bytes = budget.allocated;
        live = true;
        memo_lock = Mutex.create ();
        pred_memo = Hashtbl.create 8;
        icache_memo = Hashtbl.create 8;
      }
  with Overflow ->
    (* Recycle whatever the aborted recording had already filled. *)
    List.iter release_buf !bufs;
    None

let release t =
  if not t.live then invalid_arg "Trace.release: already released";
  t.live <- false;
  release_buf t.dispatch;
  release_buf t.fetch

let memo_find t tbl key =
  Mutex.lock t.memo_lock;
  let r = Hashtbl.find_opt tbl key in
  Mutex.unlock t.memo_lock;
  r

(* Mutation tooth: when set, [memo_add] reverts to the pre-fix unlocked
   check-then-insert, with a yield in the window to make the race land
   reliably.  Exists so the simulation harness can prove its memo check
   catches the regression; never set outside tests. *)
let mutation_racy_memo = ref false

(* Add-if-absent: the re-check under the lock is what closes the
   check-then-insert race -- two domains can both miss [memo_find] and
   both simulate, but only the first insert lands, so the table never
   accumulates duplicate bindings for a configuration. *)
let memo_add t tbl key v =
  if !mutation_racy_memo then begin
    if not (Hashtbl.mem tbl key) then begin
      (* Hold the check-then-insert window open long enough to overlap
         the other domains' arrival jitter after bank simulation. *)
      for _ = 1 to 200_000 do
        Domain.cpu_relax ()
      done;
      Hashtbl.add tbl key v
    end
  end
  else begin
    Mutex.lock t.memo_lock;
    if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v;
    Mutex.unlock t.memo_lock
  end

let memo_sizes t =
  Mutex.lock t.memo_lock;
  let r = (Hashtbl.length t.pred_memo, Hashtbl.length t.icache_memo) in
  Mutex.unlock t.memo_lock;
  r

(* ------------------------------------------------------------------ *)
(* Banked replay, config-major over decoded blocks.

   A bank walks each stream once.  Every block of [block_tokens] tokens is
   decoded once into an int array of dictionary codes, then handed to each
   configuration's block kernel in turn ([Predictor.replay_block],
   [Icache.replay_block]), which runs its whole block before the next
   configuration starts.  The kernels live in the simulator modules, not
   here: the libraries build with [-opaque], so nothing inlines across
   modules, and a per-token call from here into a simulator would cost a
   closure call plus the simulator's own dispatch for every token of
   every configuration.  Inside its own module a kernel's loop inlines
   the same access function the per-event API calls, so there is one copy
   of each simulator's logic, and this layer pays one call per block. *)

(* Replays poll far less often than the engine: one token is a handful of
   array reads, so ~65k tokens still bounds the watchdog's blind spot to
   well under a millisecond. *)
let replay_poll_tokens = 65536

(* A block's codes stay cache-resident while every configuration runs
   over them.  Must divide [replay_poll_tokens], so polls land on block
   boundaries. *)
let block_tokens = 2048

let () = assert (replay_poll_tokens mod block_tokens = 0)

(* Walk [b]'s tokens oldest-first, [f codes len] once per block, where
   [codes.(0 .. len-1)] are the block's decoded dictionary codes.  Polls
   after each block that ends on a multiple of [replay_poll_tokens]
   tokens, so a walk of [n] tokens polls [n / 65536] times.  The block
   buffer belongs to this call: banks run concurrently on several
   domains. *)
let walk_blocks ~poll b f =
  let codes = Array.make block_tokens 0 in
  let n = ref 0 and walked = ref 0 in
  let scan c limit =
    let pos = ref 0 in
    while !pos < limit do
      let room = block_tokens - !n and left = (limit - !pos) / 3 in
      let take = if room < left then room else left in
      let p = !pos and k = !n in
      for i = 0 to take - 1 do
        let q = p + (3 * i) in
        Array.unsafe_set codes (k + i)
          (Char.code (Bytes.unsafe_get c q)
          lor (Char.code (Bytes.unsafe_get c (q + 1)) lsl 8)
          lor (Char.code (Bytes.unsafe_get c (q + 2)) lsl 16))
      done;
      pos := p + (3 * take);
      n := k + take;
      if !n = block_tokens then begin
        f codes block_tokens;
        n := 0;
        walked := !walked + block_tokens;
        if !walked mod replay_poll_tokens = 0 then poll ()
      end
    done
  in
  (* A filled chunk holds a whole number of tokens up to its spare tail
     (see [push_token]). *)
  List.iter
    (fun c -> scan c (Bytes.length c - (Bytes.length c mod 3)))
    (List.rev b.filled);
  scan b.cur b.pos;
  if !n > 0 then f codes !n

(* Drive the fresh predictor configurations over the dispatch stream.  The
   dictionary's packed [b] word is split into target, opcode and
   VM-transfer columns once per bank, so the kernels index plain int
   arrays by code. *)
let bank_predictors poll t fresh =
  let sims = Array.map snd fresh in
  let n = Array.length sims in
  let mis = Array.init n (fun _ -> ref 0) in
  let vm_mis = Array.init n (fun _ -> ref 0) in
  let d = t.dispatch_dict in
  let column f = Array.init d.next (fun c -> f (Array.unsafe_get d.rev_b c)) in
  let branch = d.rev_a in
  let target = column (fun w -> w lsr (dispatch_opcode_bits + 1)) in
  let opcode =
    column (fun w -> (w lsr 1) land ((1 lsl dispatch_opcode_bits) - 1))
  in
  let vm_transfer = column (fun w -> w land 1) in
  let run_block codes len =
    for j = 0 to n - 1 do
      Predictor.replay_block sims.(j) ~branch ~target ~opcode ~vm_transfer
        ~codes ~len ~mis:mis.(j) ~vm_mis:vm_mis.(j)
    done
  in
  walk_blocks ~poll t.dispatch run_block;
  Array.iteri
    (fun j (d, _) -> memo_add t t.pred_memo d (!(mis.(j)), !(vm_mis.(j))))
    fresh

(* Same shape over the fetch stream, whose dictionary is already the
   (addr, bytes) columns. *)
let bank_icaches poll t fresh =
  let sims = Array.map snd fresh in
  let n = Array.length sims in
  let hits = Array.init n (fun _ -> ref 0) in
  let misses = Array.init n (fun _ -> ref 0) in
  let addr = t.fetch_dict.rev_a and bytes = t.fetch_dict.rev_b in
  let run_block codes len =
    for j = 0 to n - 1 do
      Icache.replay_block sims.(j) ~addr ~bytes ~codes ~len ~hits:hits.(j)
        ~misses:misses.(j)
    done
  in
  walk_blocks ~poll t.fetch run_block;
  Array.iteri
    (fun j (d, _) ->
      memo_add t t.icache_memo d (!(hits.(j)) + !(misses.(j)), !(misses.(j))))
    fresh

let replay_bank ?(poll = fun () -> ()) t ~predictors ~icaches =
  if not t.live then invalid_arg "Trace.replay_bank: trace was released";
  (* Poll before consulting the memos: a fully memo-served bank does no
     token iteration, and without this entry poll a long run of such
     groups would be invisible to the watchdog deadline. *)
  poll ();
  let fresh_of bank memo =
    Array.of_list (List.filter (fun (d, _) -> memo_find t memo d = None) bank)
  in
  let fp = fresh_of (Predictor.create_bank predictors) t.pred_memo in
  if Array.length fp > 0 then bank_predictors poll t fp;
  let fi = fresh_of (Icache.create_bank icaches) t.icache_memo in
  if Array.length fi > 0 then bank_icaches poll t fi;
  Array.length fp + Array.length fi

let build_result t ~cpu (mispredicts, vm_mispredicts) (fetches, misses) =
  let m = Metrics.copy t.base in
  m.Metrics.mispredicts <- mispredicts;
  m.Metrics.vm_branch_mispredicts <- vm_mispredicts;
  m.Metrics.icache_fetches <- fetches;
  m.Metrics.icache_misses <- misses;
  m.Metrics.code_bytes <- t.code_bytes;
  {
    Engine.metrics = m;
    cycles = Cpu_model.cycles cpu m;
    seconds = Cpu_model.seconds cpu m;
    steps = t.steps;
    trapped = t.trapped;
  }

let replay ?poll t ~cpu ~predictor =
  if not t.live then invalid_arg "Trace.replay: trace was released";
  ignore
    (replay_bank ?poll t ~predictors:[ predictor ]
       ~icaches:[ cpu.Cpu_model.icache ]);
  let pred_counts =
    match memo_find t t.pred_memo (Predictor.descriptor predictor) with
    | Some r -> r
    | None ->
        (* Only an invalid configuration can still miss after a bank pass
           (the bank skips configurations whose constructor raises);
           re-raise that constructor's error for this cell. *)
        ignore (Predictor.create predictor : Predictor.t);
        assert false
  in
  let icache_counts =
    match
      memo_find t t.icache_memo (Icache.descriptor cpu.Cpu_model.icache)
    with
    | Some r -> r
    | None ->
        ignore (Icache.create cpu.Cpu_model.icache : Icache.t);
        assert false
  in
  build_result t ~cpu pred_counts icache_counts

(* Unlike [replay], valid on a released trace: the memo tables, base
   metrics and output are ordinary GC-managed values that survive chunk
   recycling, so a trace whose storage was evicted can still answer for
   every simulator configuration it ever replayed -- including every
   configuration a banked replay simulated while the trace was live. *)
let replay_memo t ~cpu ~predictor =
  match
    ( memo_find t t.pred_memo (Predictor.descriptor predictor),
      memo_find t t.icache_memo (Icache.descriptor cpu.Cpu_model.icache) )
  with
  | Some p, Some i -> Some (build_result t ~cpu p i)
  | _ -> None

let bytes t = t.bytes
let steps t = t.steps
let trapped t = t.trapped
let output t = t.output
let dispatch_events t = t.n_dispatch
let fetch_events t = t.n_fetch
