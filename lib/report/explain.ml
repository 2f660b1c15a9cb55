open Vmbp_core
open Vmbp_machine
open Vmbp_obs

type t = {
  run : Runner.run;
  pred_kind : Predictor.kind;
  pred_att : Attribution.t;
  icache_att : Attribution.t;
  pred_sets : int;
  icache_sets : int;
  iset : Vmbp_vm.Instr_set.t;
}

(* The self-check's reference side, attributing every event as it
   answers: a mispredict under the dispatch's opcode, an I-cache miss
   under the fetch's opcode.  A miss on an entry that another opcode's
   access displaced is a conflict with that opcode; a miss on an entry
   never displaced is cold.  The attribution rides the one lockstep run,
   so the production simulators carry no hook for it. *)
let attributing ~pred_att ~icache_att kind icache =
  let p = Reference.create_predictor kind in
  let ic = Reference.create_icache icache in
  (* The opcode whose access last displaced each branch address (resp.
     cache line), consulted when the victim later misses again. *)
  let branch_evictor = Hashtbl.create 256 in
  let line_evictor = Hashtbl.create 256 in
  let displaced evictor key =
    match Hashtbl.find_opt evictor key with
    | Some op -> Attribution.Conflict op
    | None -> Attribution.Cold
  in
  (* The two-level table has no tags: every access overwrites its slot, so
     the displacement record is the last writer (branch, opcode) of each
     slot. *)
  let writer = Hashtbl.create 256 in
  let tagless = match kind with Predictor.Two_level _ -> true | _ -> false in
  let predict ~branch ~target ~opcode =
    let { Reference.outcome; set; evicted } =
      Reference.access p ~branch ~target ~opcode
    in
    let category =
      match outcome with
      | Reference.Hit -> None
      | Reference.Miss when tagless -> Some Attribution.Cold
      | Reference.Wrong_target when tagless -> (
          match Hashtbl.find_opt writer set with
          | Some (b, _) when b = branch -> Some Attribution.Wrong_target
          | Some (_, op) -> Some (Attribution.Conflict op)
          | None -> Some Attribution.Cold)
      | Reference.Wrong_target -> Some Attribution.Wrong_target
      | Reference.Miss -> Some (displaced branch_evictor branch)
    in
    (match category with
    | Some c -> Attribution.note pred_att ~opcode ~branch ~set c
    | None -> ());
    if tagless then Hashtbl.replace writer set (branch, opcode)
    else if evicted >= 0 then Hashtbl.replace branch_evictor evicted opcode;
    outcome = Reference.Hit
  in
  let fetch ~addr ~bytes ~opcode =
    let hits, missed = Reference.fetch ic ~addr ~bytes in
    List.iter
      (fun { Reference.line; set; evicted } ->
        Attribution.note icache_att ~opcode ~branch:line ~set
          (displaced line_evictor line);
        if evicted >= 0 then Hashtbl.replace line_evictor evicted opcode)
      missed;
    (hits, List.length missed)
  in
  Audit.counting ~predict ~fetch

let run ?(scale = 1) ~audit ~cpu ~technique (workload : Vmbp_workloads.t) =
  let pred_kind = Config.predictor_kind (Config.make ~cpu technique) in
  let pred_att = Attribution.create () in
  let icache_att = Attribution.create () in
  let reference =
    attributing ~pred_att ~icache_att pred_kind cpu.Cpu_model.icache
  in
  match
    Runner.run_checked ~scale ~reference ~audit ~cell:"explain" ~cpu
      ~technique workload
  with
  | Error msg -> Error msg
  | Ok run ->
      let m = run.Runner.result.Engine.metrics in
      (* The attribution totals are definitionally the run's own counters;
         a mismatch means an event was missed or double-counted and the
         whole explanation is untrustworthy. *)
      if Attribution.total pred_att <> m.Metrics.mispredicts then
        Error
          (Printf.sprintf
             "attribution mismatch: %d attributed mispredicts vs %d counted"
             (Attribution.total pred_att) m.Metrics.mispredicts)
      else if Attribution.total icache_att <> m.Metrics.icache_misses then
        Error
          (Printf.sprintf
             "attribution mismatch: %d attributed I-cache misses vs %d \
              counted"
             (Attribution.total icache_att) m.Metrics.icache_misses)
      else
        let pred_sets =
          match pred_kind with
          | Predictor.Btb { entries; associativity; _ } when entries > 0 ->
              entries / associativity
          | Predictor.Two_level { entries; _ } -> entries
          | _ -> 0
        in
        let icache_sets =
          let c = cpu.Cpu_model.icache in
          if c.Icache.size_bytes = 0 then 0
          else
            c.Icache.size_bytes / c.Icache.line_bytes / c.Icache.associativity
        in
        Ok
          {
            run;
            pred_kind;
            pred_att;
            icache_att;
            pred_sets;
            icache_sets;
            iset =
              (workload.Vmbp_workloads.load ~scale).Vmbp_workloads.program
                .Vmbp_vm.Program.iset;
          }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let opcode_name iset op =
  if op < 0 then "(startup)"
  else
    match Vmbp_vm.Instr_set.get iset op with
    | i -> i.Vmbp_vm.Instr.name
    | exception _ -> Printf.sprintf "op%d" op

let pct part whole =
  if whole = 0 then "0.0%"
  else Printf.sprintf "%.1f%%" (100. *. float_of_int part /. float_of_int whole)

let attribution_table ~top ~iset ~what att =
  let total = Attribution.total att in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%s by opcode (%d total):\n" what total);
  let rows =
    Attribution.by_opcode att
    |> List.filteri (fun i _ -> i < top)
    |> List.map (fun (op, b) ->
           let t =
             b.Attribution.cold + b.Attribution.wrong + b.Attribution.conflict
           in
           [
             opcode_name iset op;
             Table.human_int t;
             Table.human_int b.Attribution.cold;
             Table.human_int b.Attribution.wrong;
             Table.human_int b.Attribution.conflict;
             pct t total;
           ])
  in
  Buffer.add_string buf
    (Table.render
       ~headers:[ "opcode"; "misses"; "cold"; "wrong-target"; "conflict"; "share" ]
       ~rows);
  buf

let conflict_table ~top ~iset ~what att buf =
  match Attribution.conflicts att with
  | [] -> ()
  | pairs ->
      Buffer.add_string buf (Printf.sprintf "\nTop %s conflicts:\n" what);
      let rows =
        pairs
        |> List.filteri (fun i _ -> i < top)
        |> List.map (fun ((victim, evictor, set), n) ->
               [
                 opcode_name iset victim;
                 opcode_name iset evictor;
                 (if set < 0 then "-" else string_of_int set);
                 Table.human_int n;
               ])
      in
      Buffer.add_string buf
        (Table.render ~headers:[ "victim"; "evicted by"; "set"; "count" ] ~rows)

(* Shade one cell of a per-set histogram: space for zero, then nine
   steps of increasing density up to the hottest set. *)
let shade_chars = " .:-=+*#%@"

let heatmap counts buf =
  let max_c = Array.fold_left max 0 counts in
  if max_c = 0 then Buffer.add_string buf "  (no events)\n"
  else
    Array.iteri
      (fun i c ->
        if i mod 64 = 0 then
          Buffer.add_string buf (if i = 0 then "  " else "\n  ");
        let idx = if c = 0 then 0 else min 9 (1 + (c * 8 / max_c)) in
        Buffer.add_char buf shade_chars.[idx])
      counts;
  if max_c > 0 then
    Buffer.add_string buf
      (Printf.sprintf "\n  (%d sets, 64 per row; '@' = %d events)\n"
         (Array.length counts) max_c)

let occupancy_heatmap att ~nsets buf =
  let occ = Attribution.set_occupancy att ~nsets in
  let max_c = Array.fold_left max 0 occ in
  if max_c > 0 then begin
    Buffer.add_string buf "\nPer-set occupancy (distinct missing addresses):\n";
    heatmap occ buf
  end

let section ~top ~iset ~what ~nsets att =
  let buf = attribution_table ~top ~iset ~what att in
  conflict_table ~top ~iset ~what:(String.lowercase_ascii what) att buf;
  if nsets > 0 && Attribution.total att > 0 then begin
    Buffer.add_string buf
      (Printf.sprintf "\nPer-set %s heatmap:\n" (String.lowercase_ascii what));
    heatmap (Attribution.set_counts att ~nsets) buf;
    occupancy_heatmap att ~nsets buf
  end;
  Buffer.contents buf

let render ?(top = 10) t =
  let r = t.run in
  let m = r.Runner.result.Engine.metrics in
  let header =
    Printf.sprintf
      "%s/%s  technique=%s  cpu=%s  predictor=%s\n\
       %s VM instrs, %s dispatches, %s mispredicts (%.1f%% of indirect \
       branches), %s I-cache misses\n\n"
      (Vmbp_workloads.vm_name r.Runner.workload.Vmbp_workloads.vm)
      r.Runner.workload.Vmbp_workloads.name
      (Technique.name r.Runner.technique)
      r.Runner.cpu.Cpu_model.name
      (Predictor.kind_name t.pred_kind)
      (Table.human_int m.Metrics.vm_instrs)
      (Table.human_int m.Metrics.dispatches)
      (Table.human_int m.Metrics.mispredicts)
      (100. *. Metrics.misprediction_rate m)
      (Table.human_int m.Metrics.icache_misses)
  in
  let pred =
    section ~top ~iset:t.iset ~what:"Mispredicts" ~nsets:t.pred_sets t.pred_att
  in
  let icache =
    if Attribution.total t.icache_att = 0 then
      "I-cache misses: none (infinite cache or fully resident).\n"
    else
      section ~top ~iset:t.iset ~what:"I-cache misses" ~nsets:t.icache_sets
        t.icache_att
  in
  header ^ pred ^ "\n" ^ icache
