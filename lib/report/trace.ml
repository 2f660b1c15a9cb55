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

let min_chunk_bytes = 1 lsl 13 (* 8KB chunks *)
let max_chunk_bytes = 1 lsl 20 (* 1MB chunks *)

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
  Bytes.create bytes

(* Readers only see bytes below [pos], so a dropped buffer is empty. *)
let release_buf b =
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
   reduction over raw packed words.
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
  mutable live : bool;  (* false once [release]d; chunks dropped *)
}

let record ?fuel ?translation ?(cap_bytes = max_int) ~layout ~exec ~output () =
  let budget = { allocated = 0; cap = cap_bytes } in
  try
    let dispatch = buf_create budget in
    let fetch = buf_create budget in
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
      Engine.run_events ?fuel ?translation ~metrics:m ~layout ~exec ~sink ()
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
      }
  with Overflow -> None

let release t =
  if not t.live then invalid_arg "Trace.release: already released";
  t.live <- false;
  release_buf t.dispatch;
  release_buf t.fetch

(* ------------------------------------------------------------------ *)
(* Banked replay over decoded blocks.

   A bank walks each stream once.  Every block of [block_tokens] tokens is
   decoded once into an int array of dictionary codes, then each
   configuration runs the whole block through its per-event simulator
   ([Predictor.access], [Icache.fetch]) before the next configuration
   starts.  Nothing is kept between banks: every call simulates every
   configuration it is given. *)

(* A block's codes stay cache-resident while every configuration runs
   over them. *)
let block_tokens = 2048

(* Walk [b]'s tokens oldest-first, [f codes len] once per block, where
   [codes.(0 .. len-1)] are the block's decoded dictionary codes.  The
   block buffer belongs to this call: banks run concurrently on several
   domains. *)
let walk_blocks b f =
  let codes = Array.make block_tokens 0 in
  let n = ref 0 in
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
        n := 0
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

(* Drive the predictors [sims] over the dispatch stream; returns each
   one's (mispredicts, VM-transfer mispredicts).  The dictionary's packed
   [b] word is split into target, opcode and VM-transfer columns once per
   bank, so the block loop indexes plain int arrays by code. *)
let bank_predictors t sims =
  let n = Array.length sims in
  let mis = Array.make n 0 and vm_mis = Array.make n 0 in
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
      let p = sims.(j) and m = ref 0 and v = ref 0 in
      for i = 0 to len - 1 do
        let c = Array.unsafe_get codes i in
        if
          not
            (Predictor.access p ~branch:branch.(c) ~target:target.(c)
               ~opcode:opcode.(c))
        then begin
          incr m;
          v := !v + vm_transfer.(c)
        end
      done;
      mis.(j) <- mis.(j) + !m;
      vm_mis.(j) <- vm_mis.(j) + !v
    done
  in
  walk_blocks t.dispatch run_block;
  Array.init n (fun j -> (mis.(j), vm_mis.(j)))

(* Same shape over the fetch stream, whose dictionary is already the
   (addr, bytes) columns; returns each cache's (fetches, misses). *)
let bank_icaches t sims =
  let n = Array.length sims in
  let hits = Array.init n (fun _ -> ref 0) in
  let misses = Array.init n (fun _ -> ref 0) in
  let addr = t.fetch_dict.rev_a and bytes = t.fetch_dict.rev_b in
  let run_block codes len =
    for j = 0 to n - 1 do
      let ic = sims.(j) and hits = hits.(j) and misses = misses.(j) in
      for i = 0 to len - 1 do
        let c = Array.unsafe_get codes i in
        Icache.fetch ic ~addr:addr.(c) ~bytes:bytes.(c) ~hits ~misses
      done
    done
  in
  walk_blocks t.fetch run_block;
  Array.init n (fun j -> (!(hits.(j)) + !(misses.(j)), !(misses.(j))))

(* One bank: each distinct valid configuration's descriptor and counts,
   predictors first. *)
let bank t ~predictors ~icaches =
  if not t.live then invalid_arg "Trace: trace was released";
  let run walk = function
    | [] -> []
    | bank ->
        let counts = walk t (Array.of_list (List.map snd bank)) in
        List.mapi (fun j (d, _) -> (d, counts.(j))) bank
  in
  let preds = run bank_predictors (Predictor.create_bank predictors) in
  (preds, run bank_icaches (Icache.create_bank icaches))

let replay_bank t ~predictors ~icaches =
  let p, i = bank t ~predictors ~icaches in
  List.length p + List.length i

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

let replay t ~configs =
  let preds, icaches =
    bank t ~predictors:(List.map snd configs)
      ~icaches:(List.map (fun (cpu, _) -> cpu.Cpu_model.icache) configs)
  in
  List.map
    (fun ((cpu : Cpu_model.t), predictor) ->
      (* A bank skips configurations whose constructor raises; re-raise
         that constructor's error here. *)
      let p =
        match List.assoc_opt (Predictor.descriptor predictor) preds with
        | Some r -> r
        | None ->
            ignore (Predictor.create predictor : Predictor.t);
            assert false
      in
      let i =
        match List.assoc_opt (Icache.descriptor cpu.Cpu_model.icache) icaches with
        | Some r -> r
        | None ->
            ignore (Icache.create cpu.Cpu_model.icache : Icache.t);
            assert false
      in
      build_result t ~cpu p i)
    configs

let bytes t = t.bytes
let steps t = t.steps
let output t = t.output
let dispatch_events t = t.n_dispatch
let fetch_events t = t.n_fetch
