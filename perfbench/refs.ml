(* Committed reference values: per cell, the simulated numbers a correct
   run must reproduce exactly.  One tab-separated line per cell, keyed by
   the runner's tagless, parameter-complete store key:

     key  vm_instrs  mispredicts  icache_misses  cycles

   Cycles are printed with 17 significant digits, so they read back to the
   same float. *)

type v = { vm_instrs : int; mispredicts : int; icache_misses : int; cycles : float }

let of_result (r : Vmbp_core.Engine.result) =
  let m = r.metrics in
  {
    vm_instrs = m.Vmbp_machine.Metrics.vm_instrs;
    mispredicts = m.mispredicts;
    icache_misses = m.icache_misses;
    cycles = r.cycles;
  }

let to_line key v =
  Printf.sprintf "%s\t%d\t%d\t%d\t%.17g" key v.vm_instrs v.mispredicts
    v.icache_misses v.cycles

let load file =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ key; i; m; c; cy ] ->
          Hashtbl.replace tbl key
            {
              vm_instrs = int_of_string i;
              mispredicts = int_of_string m;
              icache_misses = int_of_string c;
              cycles = float_of_string cy;
            }
      | [ "" ] -> ()
      | _ -> failwith (Printf.sprintf "%s: malformed line %S" file line))
    (String.split_on_char '\n' (Meter.read_file file));
  tbl

let save file entries =
  let oc = open_out_bin file in
  List.iter
    (fun (k, v) -> output_string oc (to_line k v ^ "\n"))
    (List.sort_uniq (fun (a, _) (b, _) -> compare a b) entries);
  close_out oc

(* Self-test hook: when set, the first cell checked is compared against a
   reference whose mispredict count is off by one, which a working check
   must report as a failed operation. *)
let perturb = ref false

let check tbl key v =
  match Hashtbl.find_opt tbl key with
  | None -> Error (Printf.sprintf "%s: no committed reference" key)
  | Some expect ->
      let expect =
        if !perturb then begin
          perturb := false;
          { expect with mispredicts = expect.mispredicts + 1 }
        end
        else expect
      in
      if expect = v then Ok ()
      else
        Error
          (Printf.sprintf "%s: got %s, reference %s" key (to_line "" v)
             (to_line "" expect))

(* Digest of a set of simulated results, so two processes can show they
   produced the same numbers. *)
let digest entries =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun (k, v) -> to_line k v)
             (List.sort_uniq compare entries))))

(* Check one runner outcome against the references, counting it on [r]. *)
let check_timed tbl r seen (t : Vmbp_report.Par_runner.timed) =
  let key = Vmbp_report.Par_runner.store_key t.cell in
  match t.outcome with
  | Error msg -> Meter.attempt r false (fun () -> key ^ ": " ^ msg)
  | Ok run ->
      let v = of_result run.Vmbp_report.Runner.result in
      seen := (key, v) :: !seen;
      let res = check tbl key v in
      Meter.attempt r (Result.is_ok res) (fun () ->
          match res with Error e -> e | Ok () -> "")
