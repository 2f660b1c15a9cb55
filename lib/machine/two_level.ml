type config = { entries : int; history : int }

let default = { entries = 1024; history = 4 }

(* The format is embedded in resume-journal fingerprints; keep it stable. *)
let descriptor { entries; history } =
  Printf.sprintf "twolevel(%d,%d)" entries history

type t = {
  cfg : config;
  table : int array;  (* predicted targets, -1 = empty *)
  index_mask : int;  (* entries - 1 *)
  history_mask : int;  (* the low [4 * history] bits *)
  mutable ghr : int;  (* hashed path history register *)
  (* Introspection hook, called once per access; [None] costs one match
     and never alters any decision. *)
  mutable observer :
    (branch:int -> index:int -> empty:bool -> correct:bool -> unit) option;
}

let create cfg =
  if cfg.entries <= 0 || cfg.entries land (cfg.entries - 1) <> 0 then
    invalid_arg "Two_level.create: entries must be a positive power of two";
  (* Each history entry contributes 4 bits to the register; above 15 the
     mask shift would exceed the OCaml word and the register silently
     degenerates, so reject it up front like the other geometry checks. *)
  if cfg.history <= 0 || cfg.history > 15 then
    invalid_arg "Two_level.create: history must be in 1..15";
  {
    cfg;
    table = Array.make cfg.entries (-1);
    index_mask = cfg.entries - 1;
    history_mask = (1 lsl (4 * cfg.history)) - 1;
    ghr = 0;
    observer = None;
  }

let set_observer t obs = t.observer <- obs

(* Fold the branch address and path history into a table index.  The
   multiplicative hash spreads byte addresses that share low bits. *)
let[@inline] index t branch =
  let h = (branch * 2654435761) lxor t.ghr in
  (h lsr 4) land t.index_mask

let[@inline] access t ~branch ~target =
  let i = index t branch in
  (* [i] is masked to the table size. *)
  let prev = Array.unsafe_get t.table i in
  let correct = prev = target in
  Array.unsafe_set t.table i target;
  t.ghr <- ((t.ghr lsl 4) lxor (target lsr 4) lxor target) land t.history_mask;
  (match t.observer with
  | None -> ()
  | Some f -> f ~branch ~index:i ~empty:(prev = -1) ~correct);
  correct

(* The banked-replay kernel, here so [access] inlines into the loop (the
   libraries build with [-opaque]; nothing inlines across modules). *)
let replay_block t ~branch ~target ~vm_transfer ~codes ~len ~mis ~vm_mis =
  let m = ref 0 and v = ref 0 in
  for i = 0 to len - 1 do
    let c = codes.(i) in
    if not (access t ~branch:branch.(c) ~target:target.(c)) then begin
      incr m;
      v := !v + vm_transfer.(c)
    end
  done;
  mis := !mis + !m;
  vm_mis := !vm_mis + !v

let reset t =
  Array.fill t.table 0 (Array.length t.table) (-1);
  t.ghr <- 0
