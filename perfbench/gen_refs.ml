(* Regenerate the committed references.  Every cell is computed through the
   direct path (record/replay and the result cache off: one engine run per
   cell), then again through the replay path, and the two must agree
   exactly before anything is written. *)

open Vmbp_report

let sweep_universe () =
  List.map
    (fun g -> List.map (Batch.cell g) Batch.universe)
    (Batch.groups ~smoke:false)

let serve_cells () = [ List.map Serve_load.cell_of (Serve_load.queries ~smoke:false) ]

(* Simulated values of every cell, by store key; failed cells are counted
   on [r]. *)
let values r timed =
  List.filter_map
    (fun (t : Par_runner.timed) ->
      let key = Par_runner.store_key t.cell in
      match t.outcome with
      | Ok run -> Some (key, Refs.of_result run.Runner.result)
      | Error msg ->
          Meter.attempt r false (fun () -> key ^ ": " ^ msg);
          None)
    timed

let compute r =
  let batches f =
    List.concat_map (fun cells ->
        let timed = f cells in
        ignore (Par_runner.drain_log ());
        values r timed)
  in
  let grid = values r (Batch.grid_calls ~smoke:false) in
  let sweep = batches Par_runner.run_cells (sweep_universe ()) in
  let serve = batches Par_runner.run_cells (serve_cells ()) in
  (grid, sweep, serve)

let run ~dir r =
  Par_runner.trace_cap_mb := 0;
  let direct = compute r in
  Par_runner.trace_cap_mb := 256;
  Par_runner.clear_trace_cache ();
  Par_runner.clear_result_cache ();
  let replayed = compute r in
  let same (name, a, b) =
    let tbl = Hashtbl.create 4096 in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) a;
    List.iter
      (fun (k, v) ->
        let ok = Hashtbl.find_opt tbl k = Some v in
        Meter.attempt r ok (fun () -> name ^ ": replay path differs on " ^ k))
      b
  in
  let (g, s, v), (g', s', v') = (direct, replayed) in
  List.iter same [ ("paper-grid", g, g'); ("predictor-sweep", s, s'); ("serve", v, v') ];
  if r.Meter.failed = 0 then begin
    Refs.save (Filename.concat dir "paper-grid.tsv") g;
    Refs.save (Filename.concat dir "predictor-sweep.tsv") s;
    Refs.save (Filename.concat dir "serve.tsv") v
  end
