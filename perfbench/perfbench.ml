(* perfbench: the benchmark's measuring process.  run.py starts one fresh
   process per measurement:

     perfbench.exe run WORKLOAD --seed N --seconds S [--trace] [--smoke]
                                [--perturb] [--setup-only] [--trace-out F]
     perfbench.exe layers [--service] [--smoke] [--trace-out F]
                                                  decomposition pass
     perfbench.exe daemon --socket P --store D --stats F [--trace-out T]
     perfbench.exe refs                           regenerate references

   Every mode prints one JSON line: operations attempted and failed, the
   first failures, and named metrics with units.  Paths are relative to
   the checkout root, which is the working directory. *)

let refs_dir = "perfbench/refs"
let work_dir = ".perfbench"
let usage () = prerr_endline "usage: see the header of perfbench/perfbench.ml"; exit 2

(* Warm requests per second of --seconds.  The warm phase is a fixed
   request count, not a time limit, so its daemon CPU compares across
   runs; one closed-loop client sustains 2-10k requests/s on a 2-vCPU
   host. *)
let warm_rate = 4000

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flag f = List.mem f args in
  let opt name default =
    let rec go = function
      | k :: v :: _ when k = name -> v
      | _ :: rest -> go rest
      | [] -> default
    in
    go args
  in
  let seed = int_of_string (opt "--seed" "1") in
  let seconds = int_of_string (opt "--seconds" "10") in
  let smoke = flag "--smoke" and traced = flag "--trace" in
  let trace_file = opt "--trace-out" "" in
  Refs.perturb := flag "--perturb";
  let r = Meter.result () in
  Meter.info r "ocaml" Sys.ocaml_version;
  let work = Filename.concat work_dir (string_of_int (Unix.getpid ())) in
  let with_work f =
    if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755;
    Unix.mkdir work 0o755;
    Fun.protect ~finally:(fun () -> Serve_load.remove_tree work) f
  in
  (match args with
  | "run" :: workload :: _ -> (
      let refs file = Refs.load (Filename.concat refs_dir file) in
      let setup_only = flag "--setup-only" in
      match workload with
      | ("paper-grid" | "predictor-sweep") when setup_only ->
          let load, profile = Batch.setup () in
          Meter.metric r "setup_s" "s" (load +. profile)
      | "paper-grid" ->
          Batch.run ~workload:`Grid ~seed ~smoke ~traced ~refs:(refs "paper-grid.tsv") r
      | "predictor-sweep" ->
          Batch.run ~workload:`Sweep ~seed ~smoke ~traced
            ~refs:(refs "predictor-sweep.tsv") r
      | "serve" ->
          with_work (fun () ->
              let trace_out =
                if not traced then None
                else if trace_file <> "" then Some trace_file
                else Some (Filename.concat work "serve-trace.json")
              in
              Serve_load.run ~seed
                ~warm_requests:(if smoke then 200 else seconds * warm_rate)
                ~smoke ~trace_out ~setup_only ~refs:(refs "serve.tsv") ~work r)
      | _ -> usage ())
  | "layers" :: _ ->
      Layers.run ~smoke ~refs:(Refs.load (Filename.concat refs_dir "paper-grid.tsv")) r;
      (* The batch workloads run no daemon, so their traced runs take the
         service, protocol and store layers from a short session here. *)
      if flag "--service" then
        with_work (fun () ->
            Serve_load.run
              ~keep:(String.starts_with ~prefix:"service.")
              ~seed ~warm_requests:2000 ~smoke:true
              ~trace_out:(Some (Filename.concat work "serve-trace.json"))
              ~setup_only:false ~refs:(Refs.load (Filename.concat refs_dir "serve.tsv"))
              ~work r)
  | "daemon" :: _ ->
      let trace_out = match opt "--trace-out" "" with "" -> None | f -> Some f in
      Serve_load.daemon ~socket:(opt "--socket" "") ~store:(opt "--store" "")
        ~stats:(opt "--stats" "") ~trace_out
  | "refs" :: _ -> Gen_refs.run ~dir:refs_dir r
  | _ -> usage ());
  (* Batch workloads and the decomposition pass trace in this process. *)
  if trace_file <> "" && Vmbp_obs.Span.is_enabled () then
    Vmbp_obs.Span.write ~file:trace_file;
  Meter.print r
