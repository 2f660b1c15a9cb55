(* Unit and property tests for the simulated hardware substrate. *)

open Vmbp_machine

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -------------------------------------------------------------------- *)
(* BTB *)

let test_btb_ideal_last_target () =
  let btb = Btb.create Btb.ideal in
  (* First access: compulsory miss. *)
  check_bool "cold miss" false (Btb.access btb ~branch:100 ~target:1);
  check_bool "repeat hit" true (Btb.access btb ~branch:100 ~target:1);
  (* Target change: miss, then the new target is predicted. *)
  check_bool "changed target" false (Btb.access btb ~branch:100 ~target:2);
  check_bool "new target hit" true (Btb.access btb ~branch:100 ~target:2)

let test_btb_alternating_always_misses () =
  let btb = Btb.create Btb.ideal in
  ignore (Btb.access btb ~branch:7 ~target:1);
  let misses = ref 0 in
  for i = 1 to 100 do
    let target = if i mod 2 = 0 then 1 else 2 in
    if not (Btb.access btb ~branch:7 ~target) then incr misses
  done;
  check_int "alternating targets never predict" 100 !misses

let test_btb_two_bit_counters_tolerate_glitch () =
  (* With two-bit counters, a single diverging execution must not evict a
     well-established target. *)
  let btb = Btb.create (Btb.with_counters ~entries:64 ~associativity:4) in
  for _ = 1 to 4 do
    ignore (Btb.access btb ~branch:8 ~target:1)
  done;
  check_bool "glitch mispredicts" false (Btb.access btb ~branch:8 ~target:2);
  (* The stored target must still be 1. *)
  check_bool "target survives glitch" true (Btb.access btb ~branch:8 ~target:1)

let test_btb_classic_replaces_immediately () =
  let btb = Btb.create (Btb.classic ~entries:64 ~associativity:4) in
  for _ = 1 to 4 do
    ignore (Btb.access btb ~branch:8 ~target:1)
  done;
  ignore (Btb.access btb ~branch:8 ~target:2);
  check_bool "classic BTB follows the glitch" true
    (Btb.access btb ~branch:8 ~target:2)

let test_btb_capacity_conflicts () =
  (* A direct-mapped 4-entry BTB thrashes when 8 branches alias. *)
  let btb = Btb.create (Btb.classic ~entries:4 ~associativity:1) in
  let all_hit = ref true in
  for round = 1 to 3 do
    for b = 0 to 7 do
      let branch = b * 64 in
      let hit = Btb.access btb ~branch ~target:(b + 1) in
      if round > 1 && not hit then all_hit := false
    done
  done;
  check_bool "conflicts cause misses" false !all_hit;
  (* An unbounded BTB on the same stream predicts perfectly after warmup. *)
  let ideal = Btb.create Btb.ideal in
  let ok = ref true in
  for round = 1 to 3 do
    for b = 0 to 7 do
      let hit = Btb.access ideal ~branch:(b * 64) ~target:(b + 1) in
      if round > 1 && not hit then ok := false
    done
  done;
  check_bool "unbounded BTB predicts all" true !ok

let test_btb_rejects_bad_config () =
  let rejects name cfg =
    match Btb.create cfg with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": Btb.create must reject this config")
  in
  rejects "negative entries"
    { Btb.entries = -1; associativity = 1; two_bit_counters = false };
  rejects "zero associativity"
    { Btb.entries = 64; associativity = 0; two_bit_counters = false };
  rejects "negative associativity"
    { Btb.entries = 64; associativity = -4; two_bit_counters = true };
  (* entries = 0 stays the unbounded (idealised) sentinel, whatever the
     associativity field says. *)
  ignore (Btb.create Btb.ideal);
  ignore
    (Btb.create { Btb.entries = 0; associativity = 0; two_bit_counters = false })

let test_btb_predict_readonly () =
  let btb = Btb.create Btb.ideal in
  Alcotest.(check (option int)) "empty" None (Btb.predict btb ~branch:5);
  ignore (Btb.access btb ~branch:5 ~target:42);
  Alcotest.(check (option int)) "stored" (Some 42) (Btb.predict btb ~branch:5);
  Alcotest.(check (option int))
    "predict does not update" (Some 42)
    (Btb.predict btb ~branch:5)

let prop_btb_repeating_stream_predicts =
  QCheck.Test.make ~name:"btb: any repeated (branch,target) stream is predicted"
    ~count:50
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_bound 1000) (int_bound 1000)))
    (fun pairs ->
      QCheck.assume (pairs <> []);
      (* Deduplicate branches: one fixed target per branch. *)
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (b, t) -> if not (Hashtbl.mem tbl b) then Hashtbl.add tbl b t)
        pairs;
      let stream = Hashtbl.fold (fun b t acc -> (b, t) :: acc) tbl [] in
      let btb = Btb.create Btb.ideal in
      (* Warm up. *)
      List.iter (fun (b, t) -> ignore (Btb.access btb ~branch:b ~target:t)) stream;
      (* Every subsequent access must predict correctly. *)
      List.for_all (fun (b, t) -> Btb.access btb ~branch:b ~target:t) stream)

(* -------------------------------------------------------------------- *)
(* Two-level predictor and case block table *)

let test_two_level_pattern () =
  (* The sequence of targets 1,2,1,2,... at one branch is history-
     predictable for a two-level predictor but not for a BTB. *)
  let p = Two_level.create Two_level.default in
  let misses = ref 0 in
  for i = 1 to 400 do
    let target = if i mod 2 = 0 then 0x100 else 0x200 in
    if not (Two_level.access p ~branch:7 ~target) then incr misses
  done;
  (* Allow warmup; steady state must be nearly perfect. *)
  check_bool
    (Printf.sprintf "two-level learns alternation (%d misses)" !misses)
    true (!misses < 40)

let test_case_block_table () =
  let t = Case_block_table.create ~entries:64 in
  (* Opcode identifies the target exactly: a switch interpreter pattern. *)
  ignore (Case_block_table.access t ~opcode:3 ~target:0x30);
  ignore (Case_block_table.access t ~opcode:4 ~target:0x40);
  check_bool "opcode 3" true (Case_block_table.access t ~opcode:3 ~target:0x30);
  check_bool "opcode 4" true (Case_block_table.access t ~opcode:4 ~target:0x40)

let test_predictor_bounds () =
  let perfect = Predictor.create Predictor.Perfect in
  let never = Predictor.create Predictor.Never in
  check_bool "perfect" true
    (Predictor.access perfect ~branch:1 ~target:2 ~opcode:0);
  check_bool "never" false (Predictor.access never ~branch:1 ~target:2 ~opcode:0)

(* -------------------------------------------------------------------- *)
(* I-cache *)

let fetch_counts icache ~addr ~bytes =
  let hits = ref 0 and misses = ref 0 in
  Icache.fetch icache ~addr ~bytes ~hits ~misses;
  (!hits, !misses)

let test_icache_basic () =
  let c =
    Icache.create
      (Icache.make_config ~size_bytes:1024 ~line_bytes:32 ~associativity:2)
  in
  let _, m1 = fetch_counts c ~addr:0 ~bytes:32 in
  check_int "cold miss" 1 m1;
  let h2, m2 = fetch_counts c ~addr:0 ~bytes:32 in
  check_int "warm hit" 1 h2;
  check_int "no miss" 0 m2

let test_icache_straddles_lines () =
  let c =
    Icache.create
      (Icache.make_config ~size_bytes:1024 ~line_bytes:32 ~associativity:2)
  in
  let _, m = fetch_counts c ~addr:30 ~bytes:8 in
  check_int "fetch across a boundary touches two lines" 2 m

let test_icache_thrash () =
  (* Working set larger than the cache: repeated sweeps keep missing. *)
  let c =
    Icache.create
      (Icache.make_config ~size_bytes:256 ~line_bytes:32 ~associativity:1)
  in
  let misses = ref 0 and hits = ref 0 in
  for _ = 1 to 4 do
    (* Sweep a 1KB working set through a 256B cache: every set sees four
       competing lines, so a direct-mapped cache misses on every access. *)
    let addr = ref 0 in
    while !addr < 1024 do
      Icache.fetch c ~addr:!addr ~bytes:32 ~hits ~misses;
      addr := !addr + 32
    done
  done;
  check_bool "sweeping working set misses" true (!misses > !hits)

let test_icache_infinite_never_misses () =
  let c = Icache.create Icache.infinite in
  let misses = ref 0 and hits = ref 0 in
  for i = 0 to 999 do
    Icache.fetch c ~addr:(i * 4096) ~bytes:64 ~hits ~misses
  done;
  check_int "infinite cache" 0 !misses

(* Memo-free reference model of the same set-associative LRU cache, for the
   fetch-memo regression test below: per-line touches with a global clock
   and per-way stamps, no last-line shortcut. *)
module Ref_icache = struct
  type t = {
    line_bytes : int;
    assoc : int;
    nsets : int;
    tags : int array;
    stamps : int array;
    mutable tick : int;
  }

  let create (cfg : Icache.config) =
    let nsets = cfg.Icache.size_bytes / cfg.Icache.line_bytes
                / cfg.Icache.associativity in
    {
      line_bytes = cfg.Icache.line_bytes;
      assoc = cfg.Icache.associativity;
      nsets;
      tags = Array.make (nsets * cfg.Icache.associativity) (-1);
      stamps = Array.make (nsets * cfg.Icache.associativity) 0;
      tick = 0;
    }

  let touch t line =
    let base = line mod t.nsets * t.assoc in
    t.tick <- t.tick + 1;
    let hit = ref false in
    for i = 0 to t.assoc - 1 do
      if t.tags.(base + i) = line then begin
        t.stamps.(base + i) <- t.tick;
        hit := true
      end
    done;
    if not !hit then begin
      let victim = ref 0 in
      for i = 1 to t.assoc - 1 do
        if t.stamps.(base + i) < t.stamps.(base + !victim) then victim := i
      done;
      t.tags.(base + !victim) <- line;
      t.stamps.(base + !victim) <- t.tick
    end;
    !hit

  let fetch t ~addr ~bytes ~hits ~misses =
    let first = addr / t.line_bytes in
    let last = (addr + max 1 bytes - 1) / t.line_bytes in
    for line = first to last do
      if touch t line then incr hits else incr misses
    done
end

(* Regression test for the fetch-memo LRU staleness: a memo hit must advance
   the LRU clock and refresh the hot line's stamp exactly like the full-scan
   path, so the memoized cache stays in lock-step with a memo-free model
   through eviction decisions.  The clock assertion fails on the stale-memo
   code (memo hits used to leave the tick behind by one per hit). *)
let test_icache_memo_lru_refresh () =
  (* 2-way, 4 sets: lines 0, 4, 8, ... all compete for set 0. *)
  let cfg = Icache.make_config ~size_bytes:256 ~line_bytes:32 ~associativity:2 in
  let c = Icache.create cfg in
  let r = Ref_icache.create cfg in
  let hits = ref 0 and misses = ref 0 in
  let rhits = ref 0 and rmisses = ref 0 in
  let fetch ~addr ~bytes =
    Icache.fetch c ~addr ~bytes ~hits ~misses;
    Ref_icache.fetch r ~addr ~bytes ~hits:rhits ~misses:rmisses;
    check_int "hits track the memo-free reference" !rhits !hits;
    check_int "misses track the memo-free reference" !rmisses !misses;
    (* every access advances the LRU clock, memo hit or not *)
    check_int "clock counts every line access" (!hits + !misses)
      (Icache.clock c)
  in
  (* Straight-line re-fetches of line 0 engage the memo... *)
  for _ = 1 to 8 do
    fetch ~addr:0 ~bytes:16
  done;
  (* ...then an eviction tournament in set 0: line 4 joins, line 8 must
     evict the least recently used of {0, 4}. *)
  fetch ~addr:128 ~bytes:16;
  (* refresh line 0 via the memo path only *)
  fetch ~addr:8 ~bytes:8;
  fetch ~addr:8 ~bytes:8;
  fetch ~addr:256 ~bytes:16;
  (* line 0 must still be resident: line 8 had to evict line 4 *)
  check_bool "memo-refreshed line survives eviction" true
    (Icache.resident c ~line:0);
  check_bool "stale line was the victim" false (Icache.resident c ~line:4);
  (* and a randomized soak across sets, straddling fetches included *)
  let rng = Random.State.make [| 0x1CACE |] in
  for _ = 1 to 2000 do
    let addr = Random.State.int rng 2048 in
    let bytes = 1 + Random.State.int rng 64 in
    fetch ~addr ~bytes
  done

let test_btb_set_index_distribution () =
  (* Dispatch sites are byte addresses a few words apart; dropping the low
     address bits must spread neighbouring branches over many sets instead
     of piling them into a few. *)
  let btb = Btb.create (Btb.classic ~entries:512 ~associativity:4) in
  let distinct stride n =
    let seen = Hashtbl.create 64 in
    for k = 0 to n - 1 do
      Hashtbl.replace seen (Btb.set_index btb (0x4000 + (k * stride))) ()
    done;
    Hashtbl.length seen
  in
  (* 128 sets: 64 sites 16 bytes apart cover 32 sets, 4-byte spacing is
     conflict-free up to the set count. *)
  check_int "16-byte stride spreads" 32 (distinct 16 64);
  check_int "word stride is conflict-free" 64 (distinct 4 64);
  check_int "full coverage at set count" 128 (distinct 4 128);
  (* indices stay in range *)
  for k = 0 to 511 do
    let s = Btb.set_index btb (k * 12) in
    check_bool "index in range" true (s >= 0 && s < 128)
  done

(* -------------------------------------------------------------------- *)
(* Cost model and allocator *)

let test_cycles_model () =
  let m = Metrics.create () in
  m.Metrics.native_instrs <- 1000;
  m.Metrics.mispredicts <- 10;
  m.Metrics.icache_misses <- 5;
  let cpu = Cpu_model.pentium4_northwood in
  let expected =
    (1000. /. cpu.Cpu_model.ipc)
    +. float_of_int (10 * cpu.Cpu_model.mispredict_penalty)
    +. float_of_int (5 * cpu.Cpu_model.icache_miss_penalty)
  in
  Alcotest.(check (float 1e-9)) "cycles" expected (Cpu_model.cycles cpu m)

let test_cpu_lookup () =
  check_bool "find celeron" true (Cpu_model.find "celeron-800" <> None);
  check_bool "unknown" true (Cpu_model.find "cray-1" = None)

let test_memory_layout () =
  let a = Memory_layout.create ~base:0x1000 ~align:16 () in
  let b1 = Memory_layout.alloc a ~bytes:10 in
  let b2 = Memory_layout.alloc a ~bytes:20 in
  check_int "first at base" 0x1000 b1;
  check_int "aligned" 0 (b2 mod 16);
  check_bool "disjoint" true (b2 >= b1 + 10);
  check_bool "used covers both" true (Memory_layout.used_bytes a >= 30)

let test_metrics_arith () =
  let a = Metrics.create () in
  a.Metrics.dispatches <- 12;
  a.Metrics.mispredicts <- 2;
  let c = Metrics.copy a in
  check_int "copy dispatches" 12 c.Metrics.dispatches;
  check_int "copy mispredicts" 2 c.Metrics.mispredicts;
  a.Metrics.dispatches <- 0;
  check_int "copy unaffected" 12 c.Metrics.dispatches

let test_misprediction_rate () =
  let m = Metrics.create () in
  Alcotest.(check (float 0.)) "0/0" 0. (Metrics.misprediction_rate m);
  m.Metrics.indirect_branches <- 10;
  m.Metrics.mispredicts <- 4;
  Alcotest.(check (float 1e-9)) "4/10" 0.4 (Metrics.misprediction_rate m)

(* -------------------------------------------------------------------- *)
(* Geometry validation (satellite: Icache/Two_level reject malformed
   configurations with Invalid_argument, like Btb.create) *)

let test_icache_rejects_bad_config () =
  let rejects name cfg =
    match Icache.create cfg with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": Icache.create must reject this config")
  in
  rejects "negative size"
    { Icache.size_bytes = -64; line_bytes = 16; associativity = 1 };
  rejects "non-power-of-two line"
    { Icache.size_bytes = 256; line_bytes = 24; associativity = 1 };
  rejects "zero line" { Icache.size_bytes = 256; line_bytes = 0; associativity = 1 };
  rejects "zero associativity"
    { Icache.size_bytes = 256; line_bytes = 16; associativity = 0 };
  rejects "size not a multiple of line"
    { Icache.size_bytes = 100; line_bytes = 16; associativity = 1 };
  rejects "lines not divisible by ways"
    { Icache.size_bytes = 256; line_bytes = 16; associativity = 5 };
  (* The infinite cache and a sound finite geometry still construct. *)
  ignore (Icache.create Icache.infinite);
  ignore
    (Icache.create { Icache.size_bytes = 256; line_bytes = 16; associativity = 2 })

let test_two_level_rejects_bad_config () =
  let rejects name cfg =
    match Two_level.create cfg with
    | exception Invalid_argument _ -> ()
    | _ ->
        Alcotest.fail (name ^ ": Two_level.create must reject this config")
  in
  rejects "zero history" { Two_level.entries = 64; history = 0 };
  rejects "history too deep" { Two_level.entries = 64; history = 16 };
  rejects "non-power-of-two entries" { Two_level.entries = 48; history = 4 };
  rejects "zero entries" { Two_level.entries = 0; history = 4 };
  ignore (Two_level.create Two_level.default)

(* -------------------------------------------------------------------- *)
(* Reference-model equivalence: the naive oracles must agree with the
   fast simulators on arbitrary event streams, since the whole value of
   the self-check harness rests on the oracle being independent *and*
   semantically identical. *)

let predictor_kinds =
  [
    ("btb-ideal", Predictor.Btb Btb.ideal);
    ( "btb-ideal-counters",
      Predictor.Btb (Btb.with_counters ~entries:0 ~associativity:1) );
    ("btb-classic-16x4", Predictor.Btb (Btb.classic ~entries:16 ~associativity:4));
    ( "btb-counters-16x4",
      Predictor.Btb (Btb.with_counters ~entries:16 ~associativity:4) );
    ( "btb-counters-8x2",
      Predictor.Btb (Btb.with_counters ~entries:8 ~associativity:2) );
    ("btb-direct-4x1", Predictor.Btb (Btb.classic ~entries:4 ~associativity:1));
    ("two-level-64x3", Predictor.Two_level { Two_level.entries = 64; history = 3 });
    ("case-block-32", Predictor.Case_block 32);
    ("perfect", Predictor.Perfect);
    ("never", Predictor.Never);
  ]

(* Branch addresses collide across a handful of sets, targets flip among
   a few values: the regime where victim selection and counter hysteresis
   actually matter. *)
let dispatch_stream_gen =
  QCheck.Gen.(
    list_size (int_range 1 400)
      (triple (map (fun n -> n * 4) (int_bound 63)) (int_bound 7) (int_bound 63)))

(* The reference models' reports, reduced to the answers the fast
   simulators give. *)
let ref_predicts oracle ~branch ~target ~opcode =
  (Reference.access oracle ~branch ~target ~opcode).Reference.outcome
  = Reference.Hit

let ref_fetch oracle ~addr ~bytes ~hits ~misses =
  let h, missed = Reference.fetch oracle ~addr ~bytes in
  hits := !hits + h;
  misses := !misses + List.length missed

let prop_predictor_matches_reference (name, kind) =
  QCheck.Test.make ~count:150
    ~name:(Printf.sprintf "%s agrees with reference" name)
    (QCheck.make ~print:QCheck.Print.(list (triple int int int)) dispatch_stream_gen)
    (fun events ->
      let fast = Predictor.create kind in
      let oracle = Reference.create_predictor kind in
      List.for_all
        (fun (branch, target, opcode) ->
          Predictor.access fast ~branch ~target ~opcode
          = ref_predicts oracle ~branch ~target ~opcode)
        events)

let fetch_stream_gen =
  QCheck.Gen.(
    list_size (int_range 1 400) (pair (int_bound 1023) (int_range 1 48)))

let prop_icache_matches_reference (name, cfg) =
  QCheck.Test.make ~count:150
    ~name:(Printf.sprintf "icache %s agrees with reference" name)
    (QCheck.make ~print:QCheck.Print.(list (pair int int)) fetch_stream_gen)
    (fun fetches ->
      let fast = Icache.create cfg in
      let oracle = Reference.create_icache cfg in
      List.for_all
        (fun (addr, bytes) ->
          let fh = ref 0 and fm = ref 0 and rh = ref 0 and rm = ref 0 in
          Icache.fetch fast ~addr ~bytes ~hits:fh ~misses:fm;
          ref_fetch oracle ~addr ~bytes ~hits:rh ~misses:rm;
          !fh = !rh && !fm = !rm)
        fetches)

let icache_geometries =
  [
    ("256B/16B/2way", { Icache.size_bytes = 256; line_bytes = 16; associativity = 2 });
    ("128B/16B/1way", { Icache.size_bytes = 128; line_bytes = 16; associativity = 1 });
    ("512B/32B/4way", { Icache.size_bytes = 512; line_bytes = 32; associativity = 4 });
    (* 3 sets: the [mod] set index of a set count that is not a power of
       two, as in the Pentium 4's 192-set cache. *)
    ("192B/16B/4way", { Icache.size_bytes = 192; line_bytes = 16; associativity = 4 });
    ("infinite", Icache.infinite);
  ]

(* The range kernels ([run_ranges]) are one more input to the same
   equivalence.  A case is random per-slot event columns (sometimes with a
   distinct shadow set), random slot ranges over them -- no entering
   dispatch, shadow ranges and one-slot ranges included -- and cuts of the
   range list into blocks of 0, 1 or many ranges.  Every block is filled
   into one reused {!Slot_ranges.t}, so entries past [len] hold stale
   ranges the kernel must not read.  The totals must equal a fold of the
   reference model over the event order {!Slot_ranges} documents. *)

type range = {
  lo : int;
  hi : int;
  enter : int;
  enter_transfer : bool;
  in_shadow : bool;
}

type kernel_case = {
  main : Slot_ranges.columns;
  shadow : Slot_ranges.columns;
  ranges : range list;
  blocks : int list;
}

(* Branch addresses collide across a handful of BTB sets, entries are a
   few targets, and fetches straddle a few dozen I-cache lines. *)
let columns_gen n st =
  let int k = Random.State.int st k in
  let col f = Array.init n (fun _ -> f ()) in
  let branch () = 4 * int 64 in
  {
    Slot_ranges.entry = col (fun () -> 16 * int 8);
    fetch_addr = col (fun () -> int 1024);
    fetch_bytes = col (fun () -> int 49);
    opcode = col (fun () -> int 64);
    transfer = col (fun () -> Random.State.bool st);
    pre_addr = col (fun () -> if int 4 = 0 then branch () else -1);
    fall_addr = col (fun () -> if int 4 = 0 then -1 else branch ());
    call_addr = col (fun () -> int 1024);
    call_bytes = col (fun () -> if int 3 = 0 then 1 + int 16 else 0);
    dispatch_bytes = 1 + int 8;
  }

let kernel_case_gen st =
  let int k = Random.State.int st k in
  let n = 1 + int 12 in
  let main = columns_gen n st in
  let shadow = if Random.State.bool st then columns_gen n st else main in
  let range _ =
    let lo = int n in
    {
      lo;
      hi = lo + int (n - lo);
      enter = (if int 4 = 0 then -1 else 4 * int 64);
      enter_transfer = Random.State.bool st;
      in_shadow = Random.State.bool st;
    }
  in
  let block _ = match int 3 with 0 -> 0 | 1 -> 1 | _ -> 2 + int 63 in
  {
    main;
    shadow;
    ranges = List.init (int 80) range;
    blocks = List.init (int 30) block;
  }

let print_kernel_case c =
  Printf.sprintf "%d slots, %sshadow, ranges [%s], blocks [%s]"
    (Array.length c.main.Slot_ranges.entry)
    (if c.shadow == c.main then "no " else "")
    (String.concat "; "
       (List.map
          (fun r ->
            Printf.sprintf "%d-%d enter %d%s%s" r.lo r.hi r.enter
              (if r.enter_transfer then " T" else "")
              (if r.in_shadow then " S" else ""))
          c.ranges))
    (String.concat "; " (List.map string_of_int c.blocks))

let kernel_case = QCheck.make ~print:print_kernel_case kernel_case_gen

(* Slot [k]'s fetches on [col], in {!Slot_ranges}' order. *)
let fold_slot_fetches (col : Slot_ranges.columns) k ~fetch =
  if col.Slot_ranges.pre_addr.(k) >= 0 then
    fetch ~addr:col.Slot_ranges.entry.(k) ~bytes:col.Slot_ranges.dispatch_bytes;
  if col.Slot_ranges.call_bytes.(k) > 0 then
    fetch ~addr:col.Slot_ranges.call_addr.(k)
      ~bytes:col.Slot_ranges.call_bytes.(k);
  fetch ~addr:col.Slot_ranges.fetch_addr.(k)
    ~bytes:col.Slot_ranges.fetch_bytes.(k)

(* Every event of [c]'s ranges, in {!Slot_ranges}' order. *)
let fold_events c ~dispatch ~fetch =
  List.iter
    (fun r ->
      let col = if r.in_shadow then c.shadow else c.main in
      for k = r.lo to r.hi do
        let branch, transfer =
          if k = r.lo then (r.enter, r.enter_transfer)
          else (col.Slot_ranges.fall_addr.(k - 1), col.Slot_ranges.transfer.(k - 1))
        in
        let opcode = col.Slot_ranges.opcode.(k) in
        if branch >= 0 then
          dispatch ~branch ~target:col.Slot_ranges.entry.(k) ~opcode ~transfer;
        let pre = col.Slot_ranges.pre_addr.(k) in
        if pre >= 0 then
          dispatch ~branch:pre ~target:col.Slot_ranges.fetch_addr.(k) ~opcode
            ~transfer:false;
        fold_slot_fetches col k ~fetch
      done)
    c.ranges

(* Hand [c]'s ranges to [kernel] block by block, cutting at [c.blocks]
   (reused cyclically).  A cut list with no positive size would never
   advance, so then the rest goes as one block. *)
let iter_blocks c kernel =
  let b = Slot_ranges.create ~main:c.main ~shadow:c.shadow in
  let block rs =
    List.iteri
      (fun i r ->
        b.Slot_ranges.lo.(i) <- r.lo;
        b.Slot_ranges.hi.(i) <- r.hi;
        b.Slot_ranges.enter.(i) <- r.enter;
        b.Slot_ranges.enter_transfer.(i) <- r.enter_transfer;
        b.Slot_ranges.in_shadow.(i) <- r.in_shadow)
      rs;
    b.Slot_ranges.len <- List.length rs;
    kernel b
  in
  let rec go pending = function
    | [] -> ()
    | rs -> (
        match pending with
        | [] when not (List.exists (fun k -> k > 0) c.blocks) -> block rs
        | [] -> go c.blocks rs
        | k :: rest ->
            block (List.filteri (fun i _ -> i < k) rs);
            go rest (List.filteri (fun i _ -> i >= k) rs))
  in
  go c.blocks c.ranges

let prop_predictor_kernel_matches_reference (name, kind) =
  QCheck.Test.make ~count:150
    ~name:(Printf.sprintf "%s block kernel agrees with reference" name)
    kernel_case
    (fun c ->
      let oracle = Reference.create_predictor kind in
      let rmis = ref 0 and rvm = ref 0 in
      fold_events c
        ~dispatch:(fun ~branch ~target ~opcode ~transfer ->
          if not (ref_predicts oracle ~branch ~target ~opcode) then begin
            incr rmis;
            if transfer then incr rvm
          end)
        ~fetch:(fun ~addr:_ ~bytes:_ -> ());
      let fast = Predictor.create kind in
      let mis = ref 0 and vm_mis = ref 0 in
      iter_blocks c (fun b -> Predictor.run_ranges fast b ~mis ~vm_mis);
      !mis = !rmis && !vm_mis = !rvm)

let prop_icache_kernel_matches_reference (name, cfg) =
  QCheck.Test.make ~count:150
    ~name:(Printf.sprintf "icache %s block kernel agrees with reference" name)
    kernel_case
    (fun c ->
      let oracle = Reference.create_icache cfg in
      let rh = ref 0 and rm = ref 0 in
      fold_events c
        ~dispatch:(fun ~branch:_ ~target:_ ~opcode:_ ~transfer:_ -> ())
        ~fetch:(fun ~addr ~bytes ->
          ref_fetch oracle ~addr ~bytes ~hits:rh ~misses:rm);
      let fast = Icache.create cfg in
      let line_bytes = cfg.Icache.line_bytes in
      let main = Icache.lines ~line_bytes c.main in
      let shadow =
        if c.shadow == c.main then main else Icache.lines ~line_bytes c.shadow
      in
      let hits = ref 0 and misses = ref 0 in
      iter_blocks c (fun b ->
          Icache.run_ranges fast b ~main ~shadow ~hits ~misses);
      (* The memo repeats the kernel skips still advance the clock. *)
      let clock = if cfg.Icache.size_bytes = 0 then 0 else !hits + !misses in
      !hits = !rh && !misses = !rm && Icache.clock fast = clock)

(* Per-event fetches between the kernel's blocks, on the same cache: the
   kernel's skipped re-stamps, its per-set and one-line memos and the
   clock must leave the cache in the state the per-event loop leaves. *)
let prop_icache_kernel_interleaves_fetch (name, cfg) =
  QCheck.Test.make ~count:150
    ~name:(Printf.sprintf "icache %s kernel between fetches agrees with reference" name)
    kernel_case
    (fun c ->
      let oracle = Reference.create_icache cfg in
      let fast = Icache.create cfg in
      let line_bytes = cfg.Icache.line_bytes in
      let main = Icache.lines ~line_bytes c.main in
      let shadow =
        if c.shadow == c.main then main else Icache.lines ~line_bytes c.shadow
      in
      let hits = ref 0 and misses = ref 0 and rh = ref 0 and rm = ref 0 in
      let both ~addr ~bytes =
        Icache.fetch fast ~addr ~bytes ~hits ~misses;
        ref_fetch oracle ~addr ~bytes ~hits:rh ~misses:rm
      in
      let n = ref 0 in
      iter_blocks c (fun b ->
          for _ = 0 to !n mod 3 do
            incr n;
            both ~addr:(37 * !n mod 1024) ~bytes:(1 + (!n mod 48))
          done;
          Icache.run_ranges fast b ~main ~shadow ~hits ~misses;
          for r = 0 to b.Slot_ranges.len - 1 do
            let col = if b.Slot_ranges.in_shadow.(r) then c.shadow else c.main in
            for k = b.Slot_ranges.lo.(r) to b.Slot_ranges.hi.(r) do
              fold_slot_fetches col k ~fetch:(fun ~addr ~bytes ->
                  ref_fetch oracle ~addr ~bytes ~hits:rh ~misses:rm)
            done
          done;
          (* A memo hit on the block's last line, which [fetch] re-stamps
             through its memo slot. *)
          let len = b.Slot_ranges.len in
          if len > 0 then begin
            let col =
              if b.Slot_ranges.in_shadow.(len - 1) then c.shadow else c.main
            in
            let k = b.Slot_ranges.hi.(len - 1) in
            both ~addr:col.Slot_ranges.fetch_addr.(k)
              ~bytes:col.Slot_ranges.fetch_bytes.(k)
          end);
      let clock = if cfg.Icache.size_bytes = 0 then 0 else !hits + !misses in
      !hits = !rh && !misses = !rm && Icache.clock fast = clock)

(* Line columns repaired from slot [k] after slots [k ..] changed -- as a
   quickening re-translates a run of slots and every later slot's lines
   move -- must equal a fresh build over the changed columns.  The new
   fetch sizes both add lines and drop them, past the flat array's
   capacity too. *)
let prop_icache_lines_refill =
  QCheck.Test.make ~count:300
    ~name:"icache line columns refilled from a slot equal a fresh build"
    (QCheck.make ~print:QCheck.Print.int QCheck.Gen.int)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let int k = Random.State.int st k in
      let n = 1 + int 12 in
      let c = columns_gen n st in
      let line_bytes = 1 lsl (2 + int 5) in
      let l = Icache.lines ~line_bytes c in
      let k = int (n + 1) in
      let size () = if Random.State.bool st then 0 else 1 + int (8 * line_bytes) in
      for j = k to n - 1 do
        c.Slot_ranges.entry.(j) <- int 1024;
        c.Slot_ranges.fetch_addr.(j) <- int 1024;
        c.Slot_ranges.fetch_bytes.(j) <- size ();
        c.Slot_ranges.pre_addr.(j) <- (if Random.State.bool st then 4 else -1);
        c.Slot_ranges.call_addr.(j) <- int 1024;
        c.Slot_ranges.call_bytes.(j) <- size ()
      done;
      Icache.fill_lines l k;
      Icache.lines_equal l (Icache.lines ~line_bytes c))

let test_icache_kernel_rejects_foreign_lines () =
  let st = Random.State.make [| 7 |] in
  let c = columns_gen 4 st and other = columns_gen 4 st in
  let b = Slot_ranges.create ~main:c ~shadow:c in
  let cache =
    Icache.create { Icache.size_bytes = 256; line_bytes = 32; associativity = 2 }
  in
  let rejects what main =
    match
      Icache.run_ranges cache b ~main ~shadow:main ~hits:(ref 0)
        ~misses:(ref 0)
    with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "run_ranges accepted line columns %s" what
  in
  rejects "of another line size" (Icache.lines ~line_bytes:16 c);
  rejects "of another block" (Icache.lines ~line_bytes:32 other);
  let l = Icache.lines ~line_bytes:32 c in
  Icache.run_ranges cache b ~main:l ~shadow:l ~hits:(ref 0) ~misses:(ref 0)

(* -------------------------------------------------------------------- *)
(* What the reference models report per event (the attribution substrate
   of the explain tooling), and the fast BTB's miss path *)

let test_btb_eviction_chain () =
  (* Direct-mapped 2-entry BTB: branches 0 and 8 alias to the same set and
     evict each other, and the reference must report exactly who displaced
     whom. *)
  let btb =
    Reference.create_predictor
      (Predictor.Btb (Btb.classic ~entries:2 ~associativity:1))
  in
  let access branch = Reference.access btb ~branch ~target:1 ~opcode:0 in
  let a0 = access 0 in
  let a1 = access 8 in
  let a2 = access 0 in
  List.iter
    (fun (a : Reference.access) ->
      check_bool "every access misses" true
        (a.Reference.outcome = Reference.Miss))
    [ a0; a1; a2 ];
  check_int "same set" a0.Reference.set a1.Reference.set;
  check_int "same set again" a0.Reference.set a2.Reference.set;
  check_int "cold slot" (-1) a0.Reference.evicted;
  check_int "8 evicts 0" 0 a1.Reference.evicted;
  check_int "0 evicts 8" 8 a2.Reference.evicted

let test_btb_outcome_taxonomy () =
  let btb =
    Reference.create_predictor
      (Predictor.Btb (Btb.classic ~entries:64 ~associativity:4))
  in
  let fast = Btb.create (Btb.classic ~entries:64 ~associativity:4) in
  let report target =
    let a = Reference.access btb ~branch:8 ~target ~opcode:0 in
    check_bool "fast BTB answers the same"
      (a.Reference.outcome = Reference.Hit)
      (Btb.access fast ~branch:8 ~target);
    (a.Reference.outcome, a.Reference.set, a.Reference.evicted)
  in
  let r0 = report 1 in
  let r1 = report 1 in
  let r2 = report 2 in
  (match [ r0; r1; r2 ] with
  | [ (Reference.Miss, s0, -1); (Reference.Hit, s1, -1);
      (Reference.Wrong_target, s2, -1) ] ->
      check_int "the branch's set" (Btb.set_index fast 8) s0;
      check_int "same set on a hit" s0 s1;
      check_int "same set on a stale target" s0 s2
  | _ -> Alcotest.fail "expected cold miss, hit, wrong-target");
  (* The unbounded table has no set structure: set must be -1. *)
  let ideal = Reference.create_predictor (Predictor.Btb Btb.ideal) in
  let report () =
    let a = Reference.access ideal ~branch:3 ~target:1 ~opcode:0 in
    (a.Reference.outcome, a.Reference.set, a.Reference.evicted)
  in
  let r0 = report () in
  let r1 = report () in
  match [ r0; r1 ] with
  | [ (Reference.Miss, -1, -1); (Reference.Hit, -1, -1) ] -> ()
  | _ -> Alcotest.fail "unbounded BTB must report set = -1"

let test_btb_miss_path_allocates_nothing () =
  (* Eight branches share the one set of a 4-way table and are visited
     round-robin, so under LRU every access misses.  The fast BTB's miss
     path must not allocate. *)
  let btb = Btb.create (Btb.classic ~entries:4 ~associativity:4) in
  let n = 1_000_000 in
  let misses = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    if not (Btb.access btb ~branch:((i land 7) * 4) ~target:1) then
      incr misses
  done;
  let words = Gc.minor_words () -. before in
  check_int "every access missed" n !misses;
  Alcotest.(check (float 0.)) "minor words over 1M misses" 0. words

let test_two_level_slot_reporting () =
  (* With one target of history, every access with target 100 leaves the
     same history behind, so from the second access on branch 5 keeps
     hashing to one slot. *)
  let p =
    Reference.create_predictor
      (Predictor.Two_level { Two_level.entries = 64; history = 1 })
  in
  let access target = Reference.access p ~branch:5 ~target ~opcode:0 in
  let a0 = access 100 in
  let _ = access 100 in
  let a2 = access 100 in
  let a3 = access 200 in
  List.iter
    (fun (a : Reference.access) ->
      check_bool "slot in range" true
        (a.Reference.set >= 0 && a.Reference.set < 64);
      check_int "a tagless table displaces no tag" (-1) a.Reference.evicted)
    [ a0; a2; a3 ];
  check_bool "the first access finds its slot empty" true
    (a0.Reference.outcome = Reference.Miss);
  check_bool "a trained slot hits" true (a2.Reference.outcome = Reference.Hit);
  check_int "same history, same slot" a2.Reference.set a3.Reference.set;
  check_bool "a full slot with another target is stale" true
    (a3.Reference.outcome = Reference.Wrong_target)

let test_two_level_reports_access_result () =
  let fast = Two_level.create Two_level.default in
  let p =
    Reference.create_predictor (Predictor.Two_level Two_level.default)
  in
  let written = Hashtbl.create 64 in
  for i = 0 to 199 do
    let branch = i mod 3 * 32 and target = i mod 4 in
    let a = Reference.access p ~branch ~target ~opcode:0 in
    check_bool "hit exactly when the fast predictor predicts"
      (Two_level.access fast ~branch ~target)
      (a.Reference.outcome = Reference.Hit);
    check_bool "miss exactly when the slot was empty"
      (not (Hashtbl.mem written a.Reference.set))
      (a.Reference.outcome = Reference.Miss);
    Hashtbl.replace written a.Reference.set ()
  done

let test_icache_eviction_reporting () =
  (* 128B/16B direct-mapped: 8 sets; lines 0 and 8 alias to set 0. *)
  let cfg = { Icache.size_bytes = 128; line_bytes = 16; associativity = 1 } in
  let c = Reference.create_icache cfg in
  let fast = Icache.create cfg in
  let fetch addr =
    let hits, missed = Reference.fetch c ~addr ~bytes:16 in
    let h = ref 0 and m = ref 0 in
    Icache.fetch fast ~addr ~bytes:16 ~hits:h ~misses:m;
    check_int "hits as the fast cache counts" !h hits;
    check_int "misses as the fast cache counts" !m (List.length missed);
    List.map
      (fun { Reference.line; set; evicted } -> (line, set, evicted))
      missed
  in
  let log = List.concat_map fetch [ 0; 8 * 16; 0 ] in
  (match log with
  | [ (0, 0, -1); (8, 0, 0); (0, 0, 8) ] -> ()
  | l -> Alcotest.failf "unexpected icache log (%d events)" (List.length l));
  (* A hit reports nothing. *)
  check_int "hit is silent" 0 (List.length (fetch 0));
  (* The infinite cache never misses. *)
  let inf = Reference.create_icache Icache.infinite in
  match Reference.fetch inf ~addr:4096 ~bytes:64 with
  | 2, [] -> ()
  | h, l ->
      Alcotest.failf "infinite cache reported %d hits, %d misses" h
        (List.length l)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "machine"
    [
      ( "btb",
        [
          Alcotest.test_case "last-target prediction" `Quick
            test_btb_ideal_last_target;
          Alcotest.test_case "alternating targets" `Quick
            test_btb_alternating_always_misses;
          Alcotest.test_case "2-bit counters" `Quick
            test_btb_two_bit_counters_tolerate_glitch;
          Alcotest.test_case "classic replaces immediately" `Quick
            test_btb_classic_replaces_immediately;
          Alcotest.test_case "capacity and conflict misses" `Quick
            test_btb_capacity_conflicts;
          Alcotest.test_case "rejects bad config" `Quick
            test_btb_rejects_bad_config;
          Alcotest.test_case "predict is read-only" `Quick
            test_btb_predict_readonly;
          Alcotest.test_case "set index distribution" `Quick
            test_btb_set_index_distribution;
          qt prop_btb_repeating_stream_predicts;
        ] );
      ( "predictors",
        [
          Alcotest.test_case "two-level learns patterns" `Quick
            test_two_level_pattern;
          Alcotest.test_case "case block table" `Quick test_case_block_table;
          Alcotest.test_case "perfect/never bounds" `Quick test_predictor_bounds;
        ] );
      ( "icache",
        [
          Alcotest.test_case "hit after miss" `Quick test_icache_basic;
          Alcotest.test_case "line straddling" `Quick test_icache_straddles_lines;
          Alcotest.test_case "thrashing" `Quick test_icache_thrash;
          Alcotest.test_case "infinite cache" `Quick
            test_icache_infinite_never_misses;
          Alcotest.test_case "fetch memo keeps LRU fresh" `Quick
            test_icache_memo_lru_refresh;
          Alcotest.test_case "kernel rejects foreign line columns" `Quick
            test_icache_kernel_rejects_foreign_lines;
        ] );
      ( "geometry",
        [
          Alcotest.test_case "icache rejects bad config" `Quick
            test_icache_rejects_bad_config;
          Alcotest.test_case "two-level rejects bad config" `Quick
            test_two_level_rejects_bad_config;
        ] );
      ( "observers",
        [
          Alcotest.test_case "btb eviction chain" `Quick
            test_btb_eviction_chain;
          Alcotest.test_case "btb outcome taxonomy" `Quick
            test_btb_outcome_taxonomy;
          Alcotest.test_case "btb miss path allocates nothing" `Quick
            test_btb_miss_path_allocates_nothing;
          Alcotest.test_case "two-level slot reporting" `Quick
            test_two_level_slot_reporting;
          Alcotest.test_case "two-level reports access result" `Quick
            test_two_level_reports_access_result;
          Alcotest.test_case "icache eviction reporting" `Quick
            test_icache_eviction_reporting;
        ] );
      ( "reference-equivalence",
        List.map qt
          (List.map prop_predictor_matches_reference predictor_kinds
          @ List.map prop_icache_matches_reference icache_geometries
          @ List.map prop_predictor_kernel_matches_reference predictor_kinds
          @ List.map prop_icache_kernel_matches_reference icache_geometries
          @ List.map prop_icache_kernel_interleaves_fetch icache_geometries
          @ [ prop_icache_lines_refill ]) );
      ( "cost-model",
        [
          Alcotest.test_case "cycle formula" `Quick test_cycles_model;
          Alcotest.test_case "profile lookup" `Quick test_cpu_lookup;
          Alcotest.test_case "allocator" `Quick test_memory_layout;
          Alcotest.test_case "metrics arithmetic" `Quick test_metrics_arith;
          Alcotest.test_case "misprediction rate" `Quick test_misprediction_rate;
        ] );
    ]
