open Vmbp_vm

(* A packed entry is [(nexts lsl code_bits) lor code]: the [Next]s that
   preceded one non-[Next] outcome, and that outcome's code.  Codes below
   the program length are in-range jumps; the rest index the side table.
   A run of consecutive [Next]s walks forward through the program, so it
   is shorter than the program and fits the high bits easily. *)
let code_bits = 32
let code_mask = (1 lsl code_bits) - 1
let max_nexts = (1 lsl (Sys.int_size - 1 - code_bits)) - 1
let word = Sys.word_size / 8

type t = {
  entries : int array;  (* never empty: the end marker comes last *)
  jumps : Control.t array;  (* [Jump k] at every recorded target [k] *)
  side : Control.t array;
  slots : int;
  steps : int;
  output : string;
  bytes : int;
}

let past_end = Control.Trap "vm path: replayed past its recorded end"

(* ------------------------------------------------------------------ *)
(* Recording *)

type recorder = {
  r_slots : int;
  cap_bytes : int;
  mutable buf : int array;
  mutable len : int;
  mutable nexts : int;  (* [Next]s since the last stored outcome *)
  mutable side_rev : Control.t list;
  mutable n_side : int;
  mutable overflow : bool;
}

let push r code =
  if not r.overflow then begin
    if
      r.nexts > max_nexts || code > code_mask
      || (r.len + 1 + r.r_slots) * word > r.cap_bytes
    then begin
      r.overflow <- true;
      r.buf <- [||]
    end
    else begin
      if r.len = Array.length r.buf then begin
        let b = Array.make (2 * r.len) 0 in
        Array.blit r.buf 0 b 0 r.len;
        r.buf <- b
      end;
      Array.unsafe_set r.buf r.len ((r.nexts lsl code_bits) lor code);
      r.len <- r.len + 1
    end
  end;
  r.nexts <- 0

(* A [Quicken] outcome with its operands copied: a recorded one keeps
   them private from the live run that installs them, and each replayed
   one hands its run a fresh array. *)
let fresh (c : Control.t) =
  match c with
  | Control.Quicken q ->
      Control.Quicken
        { q with Control.new_operands = Array.copy q.Control.new_operands }
  | c -> c

let push_side r c =
  if not r.overflow then begin
    r.side_rev <- fresh c :: r.side_rev;
    r.n_side <- r.n_side + 1
  end;
  push r (r.r_slots + r.n_side - 1)

let recorder ?(cap_bytes = max_int) ~slots live =
  let r =
    {
      r_slots = slots;
      cap_bytes;
      buf = Array.make 1024 0;
      len = 0;
      nexts = 0;
      side_rev = [];
      n_side = 0;
      overflow = false;
    }
  in
  let record_step program pc =
    let c = live program pc in
    (match c with
    | Control.Next -> r.nexts <- r.nexts + 1
    | Control.Jump target when target >= 0 && target < slots -> push r target
    | c -> push_side r c);
    c
  in
  (r, record_step)

let finish r ~steps ~trapped ~output =
  let out_of_fuel =
    match trapped with
    | Some msg -> String.equal msg Engine.out_of_fuel
    | None -> false
  in
  if out_of_fuel then Error `Incomplete
  else begin
    (* The end marker carries the trailing [Next]s. *)
    push_side r past_end;
    if r.overflow then Error `Overflow
    else begin
      let slots = r.r_slots in
      let entries = Array.sub r.buf 0 r.len in
      r.buf <- [||];
      let jumps = Array.make slots Control.Next in
      let targets = ref 0 in
      (* Every stored outcome but the end marker was one executed step. *)
      let recorded = ref (r.len - 1) in
      Array.iter
        (fun e ->
          recorded := !recorded + (e lsr code_bits);
          let code = e land code_mask in
          if code < slots && jumps.(code) == Control.Next then begin
            jumps.(code) <- Control.Jump code;
            incr targets
          end)
        entries;
      let bytes =
        (word * (r.len + slots + (2 * !targets) + (8 * r.n_side)))
        + String.length output
      in
      if !recorded <> steps then Error `Incomplete
      else if bytes > r.cap_bytes then Error `Overflow
      else
        Ok
          {
            entries;
            jumps;
            side = Array.of_list (List.rev r.side_rev);
            slots;
            steps;
            output;
            bytes;
          }
    end
  end

(* ------------------------------------------------------------------ *)
(* Replay *)

type cursor = {
  mutable next : int;  (* index of the entry replayed once [left] is 0 *)
  mutable left : int;  (* [Next]s still to return before it *)
}

let replayer p =
  let entries = p.entries and jumps = p.jumps and side = p.side in
  let slots = p.slots in
  let last = Array.length entries - 1 in
  let cur = { next = 0; left = entries.(0) lsr code_bits } in
  (* [next] stays in [0, last] and every stored code indexes [jumps] or
     [side], so the unchecked reads are in bounds.  At the end marker the
     cursor stays put and keeps returning its trap. *)
  let replay_step _program _pc =
    let left = cur.left in
    if left > 0 then begin
      cur.left <- left - 1;
      Control.Next
    end
    else begin
      let i = cur.next in
      let code = Array.unsafe_get entries i land code_mask in
      if i < last then begin
        cur.next <- i + 1;
        cur.left <- Array.unsafe_get entries (i + 1) lsr code_bits
      end;
      if code < slots then Array.unsafe_get jumps code
      else fresh (Array.unsafe_get side (code - slots))
    end
  in
  (* [opaque_identity] (free) keeps the closure's symbol named after
     [replay_step], which the hot-path lint looks up; a bare [replay_step]
     body would be inlined into an anonymous [fun]. *)
  Sys.opaque_identity replay_step

let steps p = p.steps
let output p = p.output
let bytes p = p.bytes
let slots p = p.slots
let entries p = p.entries
let side p i = fresh p.side.(i)
