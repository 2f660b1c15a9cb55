type config = { size_bytes : int; line_bytes : int; associativity : int }

let infinite = { size_bytes = 0; line_bytes = 32; associativity = 1 }

(* The format is embedded in store fingerprints; keep it stable. *)
let descriptor { size_bytes; line_bytes; associativity } =
  Printf.sprintf "icache(%d,%d,%d)" size_bytes line_bytes associativity

let make_config ~size_bytes ~line_bytes ~associativity =
  if line_bytes <= 0 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Icache.make_config: line_bytes must be a power of two";
  if size_bytes <> 0 then begin
    let lines = size_bytes / line_bytes in
    if lines * line_bytes <> size_bytes then
      invalid_arg "Icache.make_config: size must be a multiple of line size";
    if lines mod associativity <> 0 then
      invalid_arg "Icache.make_config: lines must divide by associativity"
  end;
  { size_bytes; line_bytes; associativity }

type t = {
  cfg : config;
  infinite : bool;  (* [cfg.size_bytes = 0], flat -- skips the config
                       pointer chase on every fetch *)
  assoc : int;  (* [cfg.associativity], flat, for the per-fetch set scan *)
  nsets : int;
  line_shift : int;
      (* log2 of [line_bytes] (enforced a power of two), so the per-fetch
         address-to-line map is a shift, not a division *)
  set_mask : int;  (* nsets - 1 when a power of two, else -1 = use [mod] *)
  tags : int array;  (* nsets * associativity, -1 = invalid *)
  stamps : int array;
  mutable tick : int;
  (* One-entry fetch memo: consecutive fetches of the same line (straight-
     line execution inside a block) hit without a full set scan.  [last_slot]
     is the way the memoized line occupies, so a memo hit can refresh the
     line's LRU stamp without rescanning the set: skipping the refresh would
     leave the hot line's stamp stale and let it be evicted as the "LRU"
     victim, inflating miss counts for exactly the replicated layouts whose
     I-cache pressure the paper measures (Section 7.4). *)
  mutable last_line : int;
  mutable last_slot : int;
  (* Introspection hook, called once per line miss; [None] costs one
     match on the miss path only and never alters any decision. *)
  mutable observer : (line:int -> set:int -> evicted:int -> unit) option;
}

let create cfg =
  (* Same rules as [make_config], re-checked here because configurations
     also arrive as literal records (CPU profiles, CLI flags).  Without
     this, a bad geometry surfaces later as [Division_by_zero] in the
     per-fetch set lookup and aborts a whole worker pool instead of
     failing one cell. *)
  if cfg.size_bytes < 0 then
    invalid_arg "Icache.create: size must be non-negative";
  if cfg.line_bytes <= 0 || cfg.line_bytes land (cfg.line_bytes - 1) <> 0 then
    invalid_arg "Icache.create: line_bytes must be a power of two";
  if cfg.associativity <= 0 then
    invalid_arg "Icache.create: associativity must be positive";
  if cfg.size_bytes <> 0 then begin
    let lines = cfg.size_bytes / cfg.line_bytes in
    if lines * cfg.line_bytes <> cfg.size_bytes then
      invalid_arg "Icache.create: size must be a multiple of line size";
    if lines mod cfg.associativity <> 0 then
      invalid_arg "Icache.create: lines must divide by associativity"
  end;
  let nsets =
    if cfg.size_bytes = 0 then 0
    else cfg.size_bytes / cfg.line_bytes / cfg.associativity
  in
  let line_shift =
    let rec log2 k n = if n <= 1 then k else log2 (k + 1) (n lsr 1) in
    log2 0 cfg.line_bytes
  in
  {
    cfg;
    infinite = cfg.size_bytes = 0;
    assoc = cfg.associativity;
    nsets;
    line_shift;
    set_mask =
      (if nsets > 0 && nsets land (nsets - 1) = 0 then nsets - 1 else -1);
    tags = Array.make (max 1 (nsets * cfg.associativity)) (-1);
    stamps = Array.make (max 1 (nsets * cfg.associativity)) 0;
    tick = 0;
    last_line = -1;
    last_slot = -1;
    observer = None;
  }

let create_bank configs =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun cfg ->
      let d = descriptor cfg in
      if Hashtbl.mem seen d then None
      else begin
        Hashtbl.add seen d ();
        match create cfg with
        | sim -> Some (d, sim)
        | exception _ -> None
      end)
    configs

let config t = t.cfg
let set_observer t obs = t.observer <- obs

let[@inline] touch_line t line =
  let assoc = t.assoc in
  let set = if t.set_mask >= 0 then line land t.set_mask else line mod t.nsets in
  let base = set * assoc in
  let tags = t.tags in
  t.tick <- t.tick + 1;
  let hit = ref (-1) in
  let i = ref 0 in
  while !hit < 0 && !i < assoc do
    if Array.unsafe_get tags (base + !i) = line then hit := base + !i;
    incr i
  done;
  if !hit >= 0 then begin
    Array.unsafe_set t.stamps !hit t.tick;
    t.last_slot <- !hit;
    true
  end
  else begin
    let stamps = t.stamps in
    let victim = ref base in
    for i = 1 to assoc - 1 do
      if Array.unsafe_get stamps (base + i) < Array.unsafe_get stamps !victim
      then victim := base + i
    done;
    let j = !victim in
    let evicted = Array.unsafe_get tags j in
    Array.unsafe_set tags j line;
    Array.unsafe_set stamps j t.tick;
    t.last_slot <- j;
    (match t.observer with
    | None -> ()
    | Some f -> f ~line ~set ~evicted);
    false
  end

(* The last line a fetch of [bytes] at [addr] touches; a zero-byte fetch
   still touches its first line.  An int comparison, not [Stdlib.max]:
   that one is polymorphic, costs a call, and this runs on every fetch. *)
let[@inline] last_line_of t ~addr ~bytes =
  (addr + (if bytes > 1 then bytes else 1) - 1) lsr t.line_shift

(* Touch lines [first .. last] and return how many of them missed; the
   rest hit.  Shared by [fetch] and the range kernel, so both run the
   same bookkeeping. *)
let[@inline] fetch_lines t first last =
  if t.infinite then 0
  else if last = first && first = t.last_line then begin
    (* Single-line memo hit, the overwhelmingly common fetch: straight-line
       code re-fetching the line it already ran from.  Same bookkeeping as
       the loop's memo arm, minus the loop. *)
    let tk = t.tick + 1 in
    t.tick <- tk;
    Array.unsafe_set t.stamps t.last_slot tk;
    0
  end
  else begin
    let missed = ref 0 in
    for line = first to last do
      if line = t.last_line then begin
        (* Memo hit: the line is resident in [last_slot].  Advance the LRU
           clock and refresh the stamp exactly as the full-scan path would,
           so the memoized run stays in lock-step with a memo-free one. *)
        let tk = t.tick + 1 in
        t.tick <- tk;
        Array.unsafe_set t.stamps t.last_slot tk
      end
      else begin
        t.last_line <- line;
        if not (touch_line t line) then incr missed
      end
    done;
    !missed
  end

let fetch t ~addr ~bytes ~hits ~misses =
  let first = addr lsr t.line_shift in
  let last = last_line_of t ~addr ~bytes in
  let missed = fetch_lines t first last in
  hits := !hits + (last - first + 1 - missed);
  misses := !misses + missed

(* The path-walk kernel: every fetch of a block of slot ranges (see
   {!Slot_ranges}) -- per slot the pre-dispatch fetch, the call stub, then
   the body -- in this module so that [fetch_lines] inlines into the loop
   (the libraries build with [-opaque]; nothing inlines across modules).
   Counts touched lines and misses; hits are the difference. *)
let run_ranges t (b : Slot_ranges.t) ~hits ~misses =
  let lines = ref 0 and m = ref 0 in
  let shift = t.line_shift in
  for r = 0 to b.Slot_ranges.len - 1 do
    let c =
      if Array.unsafe_get b.Slot_ranges.in_shadow r then b.Slot_ranges.shadow
      else b.Slot_ranges.main
    in
    let entry = c.Slot_ranges.entry and pre = c.Slot_ranges.pre_addr in
    let fetch = c.Slot_ranges.fetch_addr and bytes = c.Slot_ranges.fetch_bytes in
    let call = c.Slot_ranges.call_addr and call_bytes = c.Slot_ranges.call_bytes in
    let dispatch_bytes = c.Slot_ranges.dispatch_bytes in
    for k = Array.unsafe_get b.Slot_ranges.lo r to Array.unsafe_get b.Slot_ranges.hi r do
      if Array.unsafe_get pre k >= 0 then begin
        let addr = Array.unsafe_get entry k in
        let first = addr lsr shift in
        let last = last_line_of t ~addr ~bytes:dispatch_bytes in
        lines := !lines + (last - first + 1);
        m := !m + fetch_lines t first last
      end;
      let cb = Array.unsafe_get call_bytes k in
      if cb > 0 then begin
        let addr = Array.unsafe_get call k in
        let first = addr lsr shift in
        let last = last_line_of t ~addr ~bytes:cb in
        lines := !lines + (last - first + 1);
        m := !m + fetch_lines t first last
      end;
      let addr = Array.unsafe_get fetch k in
      let first = addr lsr shift in
      let last = last_line_of t ~addr ~bytes:(Array.unsafe_get bytes k) in
      lines := !lines + (last - first + 1);
      m := !m + fetch_lines t first last
    done
  done;
  hits := !hits + (!lines - !m);
  misses := !misses + !m

let clock t = t.tick

let resident t ~line =
  if t.cfg.size_bytes = 0 then true
  else begin
    let assoc = t.cfg.associativity in
    let base = line mod t.nsets * assoc in
    let rec find i = i < assoc && (t.tags.(base + i) = line || find (i + 1)) in
    find 0
  end

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.tick <- 0;
  t.last_line <- -1;
  t.last_slot <- -1
