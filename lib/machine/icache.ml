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

(* log2 of a power of two. *)
let log2 n =
  let rec go k n = if n <= 1 then k else go (k + 1) (n lsr 1) in
  go 0 n

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
  tags : int array;
      (* nsets * associativity, -1 = invalid.  Every set keeps its ways in
         recency order, most recent first, so valid ways form a prefix,
         the victim of a miss is the last way and a repeat of the set's
         newest line is found at its front way. *)
  mutable last_line : int;
      (* One-entry fetch memo: the line touched last.  It is at the front
         of its set, so a repeat of it (straight-line execution inside a
         block) is a hit that changes nothing and skips the set lookup. *)
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
  {
    cfg;
    infinite = cfg.size_bytes = 0;
    assoc = cfg.associativity;
    nsets;
    line_shift = log2 cfg.line_bytes;
    set_mask =
      (if nsets > 0 && nsets land (nsets - 1) = 0 then nsets - 1 else -1);
    tags = Array.make (max 1 (nsets * cfg.associativity)) (-1);
    last_line = -1;
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

let[@inline] set_of t line =
  if t.set_mask >= 0 then line land t.set_mask else line mod t.nsets

(* Touch [line] in its set; true on a hit.  A line not already in front
   moves there and the ways before it shift down one; on a miss the shift
   drops the set's last way. *)
let[@inline] touch_line t line =
  let base = set_of t line * t.assoc in
  let tags = t.tags in
  if Array.unsafe_get tags base = line then true
  else begin
    let stop = base + t.assoc in
    let j = ref (base + 1) in
    while !j < stop && Array.unsafe_get tags !j <> line do
      incr j
    done;
    let hit = !j < stop in
    for i = (if hit then !j else stop - 1) downto base + 1 do
      Array.unsafe_set tags i (Array.unsafe_get tags (i - 1))
    done;
    Array.unsafe_set tags base line;
    hit
  end

(* The last line a fetch of [bytes] at [addr] touches under line size
   [1 lsl shift]; a zero-byte fetch still touches its first line.  An int
   comparison, not [Stdlib.max]: that one is polymorphic, costs a call,
   and this runs on every fetch. *)
let[@inline] last_line shift ~addr ~bytes =
  (addr + (if bytes > 1 then bytes else 1) - 1) lsr shift

(* Touch lines [first .. last] and return how many of them missed; the
   rest hit. *)
let[@inline] fetch_lines t first last =
  if t.infinite then 0
  else begin
    let missed = ref 0 in
    for line = first to last do
      if line <> t.last_line then begin
        t.last_line <- line;
        if not (touch_line t line) then incr missed
      end
    done;
    !missed
  end

let fetch t ~addr ~bytes ~hits ~misses =
  let first = addr lsr t.line_shift in
  let last = last_line t.line_shift ~addr ~bytes in
  let missed = fetch_lines t first last in
  hits := !hits + (last - first + 1 - missed);
  misses := !misses + missed

(* Line columns: slot [k]'s lines are [seq.(start.(k)) ..
   seq.(start.(k + 1) - 1)], its fetches in {!Slot_ranges}' order, so
   [start] is also the prefix sum of the lines the slots touch. *)
type lines = {
  shift : int;
  cols : Slot_ranges.columns;
  mutable seq : int array;
  start : int array;
}

(* Append the lines of a [bytes]-byte fetch at [addr] to slot [k]'s run,
   which ends at [start.(k + 1)]. *)
let[@inline] append_fetch l k ~addr ~bytes =
  let first = addr lsr l.shift and last = last_line l.shift ~addr ~bytes in
  let pos = l.start.(k + 1) in
  let stop = pos + last - first + 1 in
  if stop > Array.length l.seq then begin
    let cap = 2 * Array.length l.seq in
    let seq = Array.make (if cap > stop then cap else stop) 0 in
    Array.blit l.seq 0 seq 0 pos;
    l.seq <- seq
  end;
  for line = first to last do
    l.seq.(pos + line - first) <- line
  done;
  l.start.(k + 1) <- stop

let fill_lines l from =
  let c = l.cols in
  for k = from to Array.length l.start - 2 do
    l.start.(k + 1) <- l.start.(k);
    if c.Slot_ranges.pre_addr.(k) >= 0 then
      append_fetch l k ~addr:c.Slot_ranges.entry.(k)
        ~bytes:c.Slot_ranges.dispatch_bytes;
    if c.Slot_ranges.call_bytes.(k) > 0 then
      append_fetch l k ~addr:c.Slot_ranges.call_addr.(k)
        ~bytes:c.Slot_ranges.call_bytes.(k);
    append_fetch l k ~addr:c.Slot_ranges.fetch_addr.(k)
      ~bytes:c.Slot_ranges.fetch_bytes.(k)
  done

let lines ~line_bytes (cols : Slot_ranges.columns) =
  if line_bytes <= 0 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Icache.lines: line_bytes must be a power of two";
  let n = Array.length cols.Slot_ranges.entry in
  let l =
    {
      shift = log2 line_bytes;
      cols;
      seq = Array.make (2 * n + 1) 0;
      start = Array.make (n + 1) 0;
    }
  in
  fill_lines l 0;
  l

let lines_equal a b =
  let used l = Array.sub l.seq 0 l.start.(Array.length l.start - 1) in
  a.shift = b.shift && a.start = b.start && used a = used b

(* The path-walk kernel: every fetch of a block of slot ranges (see
   {!Slot_ranges}), read as the ranges' line columns, touched as [fetch]
   touches them: a repeat of the memo line changes nothing, and a repeat
   of its set's newest line is one read of the set's front way.  Counts
   touched lines and misses; hits are the difference.  It lives in this
   module so that [touch_line] inlines into the loop (the libraries build
   with [-opaque]; nothing inlines across modules). *)
let run_ranges t (b : Slot_ranges.t) ~main ~shadow ~hits ~misses =
  if main.shift <> t.line_shift || shadow.shift <> t.line_shift then
    invalid_arg "Icache.run_ranges: line columns of another line size";
  if main.cols != b.Slot_ranges.main || shadow.cols != b.Slot_ranges.shadow
  then invalid_arg "Icache.run_ranges: line columns of another block";
  let touched = ref 0 and m = ref 0 in
  let memo = ref t.last_line in
  for r = 0 to b.Slot_ranges.len - 1 do
    let l =
      if Array.unsafe_get b.Slot_ranges.in_shadow r then shadow else main
    in
    let lo = Array.unsafe_get b.Slot_ranges.lo r in
    let hi = Array.unsafe_get b.Slot_ranges.hi r in
    let first = Array.unsafe_get l.start lo in
    let stop = Array.unsafe_get l.start (hi + 1) in
    touched := !touched + stop - first;
    if not t.infinite then begin
      let seq = l.seq in
      for i = first to stop - 1 do
        let line = Array.unsafe_get seq i in
        if line <> !memo then begin
          memo := line;
          if not (touch_line t line) then incr m
        end
      done
    end
  done;
  t.last_line <- !memo;
  hits := !hits + (!touched - !m);
  misses := !misses + !m

let resident t ~line =
  if t.cfg.size_bytes = 0 then true
  else begin
    let assoc = t.cfg.associativity in
    let base = line mod t.nsets * assoc in
    let rec find i = i < assoc && (t.tags.(base + i) = line || find (i + 1)) in
    find 0
  end
