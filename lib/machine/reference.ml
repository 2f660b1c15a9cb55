(* Deliberately naive reference models of every predictor and of the
   I-cache, used as differential-testing oracles by the self-check
   harness (lib/report/audit.ml).

   Nothing here is shared with the fast simulators: sets are association
   lists walked front to back, tables are persistent [Map]s, and every
   update rebuilds the containing structure.  The point is that each
   model is small enough to audit by eye against the paper's description
   (BTB with optional two-bit hysteresis, per-set LRU; hashed two-level
   predictor; per-opcode case-block table; set-associative I-cache), so
   that when the fast simulator and the reference disagree, the fast
   simulator is the suspect.

   Every access and fetch also reports what happened -- the set, the
   outcome, the entry a miss displaced -- as a value, so the explain
   command can attribute each event without any hook in the fast
   simulators. *)

module Imap = Map.Make (Int)

type outcome = Hit | Wrong_target | Miss
type access = { outcome : outcome; set : int; evicted : int }

(* An access that found an entry for its branch. *)
let found ~correct ~set =
  { outcome = (if correct then Hit else Wrong_target); set; evicted = -1 }

(* ------------------------------------------------------------------ *)
(* Branch target buffer *)

(* One way of a finite set, in declaration order.  A set is a plain list
   of exactly [associativity] ways; replacement rebuilds the list. *)
type ref_way = { tag : int; target : int; counter : int; stamp : int }

type ref_btb = {
  b_cfg : Btb.config;
  mutable b_sets : ref_way list array;  (* finite configuration *)
  mutable b_table : (int * int) Imap.t;  (* unbounded: branch -> target, ctr *)
  mutable b_tick : int;
}

let empty_way = { tag = -1; target = 0; counter = 0; stamp = 0 }

let create_btb (cfg : Btb.config) =
  (* Same validation rules as [Btb.create], restated independently. *)
  if cfg.Btb.entries < 0 then
    invalid_arg "Reference.create_btb: entries must be non-negative";
  if cfg.Btb.entries > 0 && cfg.Btb.associativity <= 0 then
    invalid_arg "Reference.create_btb: associativity must be positive";
  if cfg.Btb.entries > 0 && cfg.Btb.entries mod cfg.Btb.associativity <> 0
  then
    invalid_arg "Reference.create_btb: entries must divide by associativity";
  let nsets =
    if cfg.Btb.entries = 0 then 0
    else cfg.Btb.entries / cfg.Btb.associativity
  in
  let sets =
    Array.init nsets (fun _ -> List.init cfg.Btb.associativity (fun _ -> empty_way))
  in
  { b_cfg = cfg; b_sets = sets; b_table = Imap.empty; b_tick = 0 }

(* The training rule, spelled out as four explicit cases:
   - correct prediction: keep the target, strengthen the counter (cap 3);
   - wrong, no hysteresis: replace immediately, counter back to 0;
   - wrong, strong counter (>= 2): keep the stored target, weaken;
   - wrong, weak counter: replace, counter to 2 (newly confident). *)
let trained ~two_bit ~stored ~actual ~counter =
  if stored = actual then (stored, if counter >= 3 then 3 else counter + 1)
  else if not two_bit then (actual, 0)
  else if counter >= 2 then (stored, counter - 1)
  else (actual, 2)

let btb_access_unbounded t ~branch ~target =
  match Imap.find_opt branch t.b_table with
  | None ->
      t.b_table <- Imap.add branch (target, 2) t.b_table;
      { outcome = Miss; set = -1; evicted = -1 }
  | Some (stored, counter) ->
      let stored', counter' =
        trained ~two_bit:t.b_cfg.Btb.two_bit_counters ~stored ~actual:target
          ~counter
      in
      t.b_table <- Imap.add branch (stored', counter') t.b_table;
      found ~correct:(stored = target) ~set:(-1)

(* The earliest way (front of the list) with the smallest stamp: a later
   way must be strictly older to displace an earlier candidate. *)
let oldest_position ways =
  let rec scan pos best best_stamp = function
    | [] -> best
    | w :: rest ->
        if w.stamp < best_stamp then scan (pos + 1) pos w.stamp rest
        else scan (pos + 1) best best_stamp rest
  in
  match ways with
  | [] -> invalid_arg "Reference: empty set"
  | w :: rest -> scan 1 0 w.stamp rest

let replace_at pos ways way' =
  List.mapi (fun i w -> if i = pos then way' else w) ways

let btb_access_finite t ~branch ~target =
  t.b_tick <- t.b_tick + 1;
  let nsets = Array.length t.b_sets in
  let set_idx = branch / 4 mod nsets in
  let ways = t.b_sets.(set_idx) in
  let rec position i = function
    | [] -> None
    | w :: rest -> if w.tag = branch then Some (i, w) else position (i + 1) rest
  in
  match position 0 ways with
  | Some (pos, w) ->
      let stored', counter' =
        trained ~two_bit:t.b_cfg.Btb.two_bit_counters ~stored:w.target
          ~actual:target ~counter:w.counter
      in
      t.b_sets.(set_idx) <-
        replace_at pos ways
          { tag = branch; target = stored'; counter = counter'; stamp = t.b_tick };
      found ~correct:(w.target = target) ~set:set_idx
  | None ->
      let pos = oldest_position ways in
      t.b_sets.(set_idx) <-
        replace_at pos ways
          { tag = branch; target; counter = 2; stamp = t.b_tick };
      { outcome = Miss; set = set_idx; evicted = (List.nth ways pos).tag }

let btb_access t ~branch ~target =
  if t.b_cfg.Btb.entries = 0 then btb_access_unbounded t ~branch ~target
  else btb_access_finite t ~branch ~target

(* ------------------------------------------------------------------ *)
(* Two-level predictor *)

type ref_two_level = {
  t_cfg : Two_level.config;
  mutable t_table : int Imap.t;  (* index -> last stored target *)
  mutable t_ghr : int;
}

let create_two_level (cfg : Two_level.config) =
  if cfg.Two_level.entries <= 0
     || cfg.Two_level.entries land (cfg.Two_level.entries - 1) <> 0
  then
    invalid_arg "Reference.create_two_level: entries must be a power of two";
  if cfg.Two_level.history <= 0 || cfg.Two_level.history > 15 then
    invalid_arg "Reference.create_two_level: history must be in 1..15";
  { t_cfg = cfg; t_table = Imap.empty; t_ghr = 0 }

let two_level_access t ~branch ~target =
  (* The index hash and history update are architectural definitions,
     restated here with plain arithmetic. *)
  let h = (branch * 2654435761) lxor t.t_ghr in
  let index = (h lsr 4) land (t.t_cfg.Two_level.entries - 1) in
  let stored = Imap.find_opt index t.t_table in
  t.t_table <- Imap.add index target t.t_table;
  let bits = 4 * t.t_cfg.Two_level.history in
  let mask = (1 lsl bits) - 1 in
  t.t_ghr <- ((t.t_ghr * 16) lxor (target / 16) lxor target) land mask;
  (* The table has no tags: an empty slot is a miss, a full one a hit or a
     stale target, whichever branch wrote it. *)
  match stored with
  | None -> { outcome = Miss; set = index; evicted = -1 }
  | Some v -> found ~correct:(v = target) ~set:index

(* ------------------------------------------------------------------ *)
(* Case-block table *)

type ref_case_block = {
  c_entries : int;
  mutable c_table : int Imap.t;  (* masked opcode -> last target *)
}

let create_case_block ~entries =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Reference.create_case_block: entries must be a power of two";
  { c_entries = entries; c_table = Imap.empty }

let case_block_access t ~opcode ~target =
  let index = opcode mod t.c_entries in
  let stored = Imap.find_opt index t.c_table in
  t.c_table <- Imap.add index target t.c_table;
  match stored with
  | None -> { outcome = Miss; set = index; evicted = -1 }
  | Some v -> found ~correct:(v = target) ~set:index

(* ------------------------------------------------------------------ *)
(* The common predictor interface *)

type predictor =
  | P_btb of ref_btb
  | P_two_level of ref_two_level
  | P_case_block of ref_case_block
  | P_perfect
  | P_never

let create_predictor (kind : Predictor.kind) =
  match kind with
  | Predictor.Btb cfg -> P_btb (create_btb cfg)
  | Predictor.Two_level cfg -> P_two_level (create_two_level cfg)
  | Predictor.Case_block entries -> P_case_block (create_case_block ~entries)
  | Predictor.Perfect -> P_perfect
  | Predictor.Never -> P_never

let access p ~branch ~target ~opcode =
  match p with
  | P_btb t -> btb_access t ~branch ~target
  | P_two_level t -> two_level_access t ~branch ~target
  | P_case_block t -> case_block_access t ~opcode ~target
  | P_perfect -> { outcome = Hit; set = -1; evicted = -1 }
  | P_never -> { outcome = Miss; set = -1; evicted = -1 }

(* ------------------------------------------------------------------ *)
(* I-cache *)

type cache_line = { line_tag : int; line_stamp : int }

type icache = {
  i_cfg : Icache.config;
  i_nsets : int;
  mutable i_sets : cache_line list array;  (* per set, newest state *)
  mutable i_tick : int;
}

let create_icache (cfg : Icache.config) =
  if cfg.Icache.size_bytes < 0 then
    invalid_arg "Reference.create_icache: size must be non-negative";
  if cfg.Icache.line_bytes <= 0
     || cfg.Icache.line_bytes land (cfg.Icache.line_bytes - 1) <> 0
  then invalid_arg "Reference.create_icache: line size must be a power of two";
  if cfg.Icache.associativity <= 0 then
    invalid_arg "Reference.create_icache: associativity must be positive";
  let nsets =
    if cfg.Icache.size_bytes = 0 then 0
    else cfg.Icache.size_bytes / cfg.Icache.line_bytes / cfg.Icache.associativity
  in
  let sets =
    Array.init nsets (fun _ ->
        List.init cfg.Icache.associativity (fun _ ->
            { line_tag = -1; line_stamp = 0 }))
  in
  { i_cfg = cfg; i_nsets = nsets; i_sets = sets; i_tick = 0 }

type miss = { line : int; set : int; evicted : int }

(* Touch one line: LRU within the set, oldest-first-position victim.
   [None] on a hit, the miss otherwise. *)
let touch t line =
  t.i_tick <- t.i_tick + 1;
  let set_idx = line mod t.i_nsets in
  let ways = t.i_sets.(set_idx) in
  let rec position i = function
    | [] -> None
    | w :: rest ->
        if w.line_tag = line then Some i else position (i + 1) rest
  in
  let oldest ways =
    let rec scan pos best best_stamp = function
      | [] -> best
      | w :: rest ->
          if w.line_stamp < best_stamp then scan (pos + 1) pos w.line_stamp rest
          else scan (pos + 1) best best_stamp rest
    in
    match ways with
    | [] -> invalid_arg "Reference: empty cache set"
    | w :: rest -> scan 1 0 w.line_stamp rest
  in
  let store pos =
    t.i_sets.(set_idx) <-
      List.mapi
        (fun i w ->
          if i = pos then { line_tag = line; line_stamp = t.i_tick } else w)
        ways
  in
  match position 0 ways with
  | Some pos -> store pos; None
  | None ->
      let pos = oldest ways in
      store pos;
      Some { line; set = set_idx; evicted = (List.nth ways pos).line_tag }

let fetch t ~addr ~bytes =
  let span = if bytes >= 1 then bytes else 1 in
  let first = addr / t.i_cfg.Icache.line_bytes in
  let last = (addr + span - 1) / t.i_cfg.Icache.line_bytes in
  if t.i_cfg.Icache.size_bytes = 0 then
    (* Infinite cache: every line of the span hits. *)
    (last - first + 1, [])
  else begin
    let missed = ref [] in
    for line = first to last do
      match touch t line with
      | None -> ()
      | Some m -> missed := m :: !missed
    done;
    (last - first + 1 - List.length !missed, List.rev !missed)
  end
