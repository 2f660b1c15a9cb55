(* The serve workload: one report-service daemon on an empty store, driven
   by one closed-loop client.  The fill phase queries every configuration
   once (each a miss: computed, appended, fsync'd); the warm phase replays
   a seeded zipf(1.1) stream over the same configurations, all store hits.

   The daemon is this executable in [daemon] mode: the library's
   [Service.serve] with the CLI's defaults and [--jobs 1], plus a stats
   file written after the drain so the client can read the daemon's own
   runner counters, GC figures and span self times. *)

open Vmbp_report
module Proto = Vmbp_service.Protocol
module Sjson = Vmbp_store.Sjson
module Span = Vmbp_obs.Span

let now = Vmbp_sim.Env.monotonic_now

(* ------------------------------------------------------------------ *)
(* Configurations *)

type query = { vm : string; workload : string; technique : string; cpu : string }

let techniques =
  Vmbp_core.Technique.
    [
      switch; plain; static_repl (); static_super (); static_both ();
      dynamic_repl; dynamic_super; dynamic_both; across_bb;
      with_static_super (); with_static_across_bb (); subroutine;
    ]

let queries ~smoke =
  let ws = [ ("forth", "gray"); ("jvm", "jess") ] in
  let ws = if smoke then [ List.hd ws ] else ws in
  let cpus =
    if smoke then [ Vmbp_machine.Cpu_model.celeron_800 ]
    else Vmbp_machine.Cpu_model.all
  in
  List.concat_map
    (fun (vm, workload) ->
      List.concat_map
        (fun t ->
          List.map
            (fun (c : Vmbp_machine.Cpu_model.t) ->
              { vm; workload; technique = Vmbp_core.Technique.name t; cpu = c.name })
            cpus)
        techniques)
    ws

let payload ?rid q =
  Proto.query_payload ~vm:q.vm ~workload:q.workload ~technique:q.technique
    ~cpu:q.cpu ?rid ()

(* The cell the server resolves a query to. *)
let cell_of q =
  match Proto.request_of_payload (payload q) with
  | Ok (Proto.Query c) -> c
  | Ok _ | Error _ -> failwith ("unresolvable query " ^ payload q)

(* ------------------------------------------------------------------ *)
(* Daemon mode *)

let write_stats file r =
  let oc = open_out_bin file in
  List.iter
    (fun (n, v, u) -> Printf.fprintf oc "%s\t%s\t%.17g\n" n u v)
    (List.rev r.Meter.metrics);
  close_out oc

let read_stats file ~keep r =
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ n; u; v ] when keep n -> Meter.metric r n u (float_of_string v)
      | _ -> ())
    (String.split_on_char '\n' (Meter.read_file file))

(* Median self time (or with [~whole], duration), times [scale], of the
   spans called [name] whose request id starts with [prefix]. *)
let span_median selfs ~scale ?(whole = false) ?(prefix = "") name =
  let xs =
    List.filter_map
      (fun ((e : Span.event), s) ->
        if e.name = name && String.starts_with ~prefix e.trace then
          Some ((if whole then e.dur else s) *. scale)
        else None)
      selfs
  in
  if xs = [] then 0. else Meter.median xs

let daemon ~socket ~store ~stats ~trace_out =
  Vmbp_obs.Registry.reset ();
  Vmbp_service.Service.serve
    {
      (Vmbp_service.Service.default_config ~socket ~store_dir:store) with
      jobs = 1;
      quiet = true;
      trace_out;
      flight_dir = Filename.dirname stats;
    };
  let cells = Par_runner.drain_log () in
  let r = Meter.result () in
  Batch.report_counts r cells;
  let events = Span.events () in
  Batch.span_metrics r events;
  let gc = Gc.quick_stat () in
  Batch.gc_metrics r ~minor_words:gc.Gc.minor_words
    ~major:gc.Gc.major_collections ~steps:(Batch.engine_steps cells);
  let selfs = Meter.self_times events in
  let m = Meter.metric r in
  (* Warm requests carry ids "w<n>", fill requests "f<n>". *)
  m "service.parse_us" "us" (span_median selfs ~scale:1e6 ~prefix:"w" "parse");
  m "service.admit_us" "us" (span_median selfs ~scale:1e6 ~prefix:"w" "admit");
  m "service.flush_us" "us" (span_median selfs ~scale:1e6 ~prefix:"w" "flush");
  m "service.compute_batch_ms" "ms"
    (span_median selfs ~scale:1e3 ~whole:true "compute-batch");
  m "service.store_append_ms" "ms"
    (span_median selfs ~scale:1e3 ~whole:true "store-append");
  write_stats stats r

(* ------------------------------------------------------------------ *)
(* Client *)

exception Dropped

let send_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let rpc fd frame =
  send_all fd frame;
  match Proto.read_frame fd with Some reply -> reply | None -> raise Dropped

let spawn ~dir ~trace_out =
  let socket = Filename.concat dir "sock" in
  let stats = Filename.concat dir "stats.tsv" in
  let exe = Sys.executable_name in
  let args =
    [ exe; "daemon"; "--socket"; socket; "--store"; Filename.concat dir "store";
      "--stats"; stats ]
    @ match trace_out with Some f -> [ "--trace-out"; f ] | None -> []
  in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin log log in
  Unix.close log;
  let deadline = now () +. 60. in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "daemon exited during start-up");
        Unix.sleepf 0.01;
        connect ()
  in
  (pid, connect (), stats)

let shutdown pid fd =
  (try ignore (rpc fd (Proto.encode_frame "{\"verb\":\"shutdown\"}"))
   with Dropped | Unix.Unix_error _ -> ());
  Unix.close fd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "daemon did not exit cleanly"

(* A reply without its request id and its source (the fill reply says
   computed, the warm one store), for comparing fill and warm answers. *)
let normalize fields =
  List.sort compare
    (List.filter (fun (k, _) -> k <> "rid" && k <> "source") fields)

let rid_mismatches = ref 0

let check_reply r ~rid reply ok_fields =
  match Sjson.parse_line reply with
  | exception Sjson.Bad ->
      Meter.attempt r false (fun () -> "unparsable reply " ^ reply);
      None
  | fields ->
      if Sjson.str_opt fields "rid" <> Some rid then begin
        incr rid_mismatches;
        Meter.attempt r false (fun () -> Printf.sprintf "rid mismatch on %s" rid);
        None
      end
      else if Sjson.str_opt fields "status" <> Some "ok" then begin
        Meter.attempt r false (fun () -> Printf.sprintf "%s: %s" rid reply);
        None
      end
      else
        let res = ok_fields fields in
        Meter.attempt r (Result.is_ok res) (fun () ->
            match res with Error e -> e | Ok () -> "");
        Some fields

let remove_tree dir =
  if Sys.file_exists dir then
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* Query every configuration once.  Returns each configuration's
   normalized reply ([None] where the reply failed its checks). *)
let fill r ~refs fd qs seen =
  List.mapi
    (fun i q ->
      let rid = Printf.sprintf "f%d" i in
      let key = Par_runner.store_key (cell_of q) in
      match rpc fd (Proto.encode_frame (payload ~rid q)) with
      | exception (Dropped | Unix.Unix_error _) ->
          Meter.attempt r false (fun () -> rid ^ ": connection dropped");
          raise Dropped
      | reply ->
          Option.map normalize
            (check_reply r ~rid reply (fun f ->
                 let v =
                   {
                     Refs.vm_instrs = Sjson.int f "vm_instrs";
                     mispredicts = Sjson.int f "mispredicts";
                     icache_misses = Sjson.int f "icache_misses";
                     cycles = Sjson.num f "cycles";
                   }
                 in
                 seen := (key, v) :: !seen;
                 Refs.check refs key v)))
    qs

(* A seeded zipf(1.1) stream over [n] configurations: a seeded popularity
   ranking, then [count] seeded draws by rank. *)
let zipf_stream ~seed ~n ~count =
  let st = Random.State.make [| seed; 0x5e77e |] in
  let rank = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = rank.(i) in
    rank.(i) <- rank.(j);
    rank.(j) <- t
  done;
  let cum = Array.make n 0. in
  let total = ref 0. in
  for k = 0 to n - 1 do
    total := !total +. (1. /. (float_of_int (k + 1) ** 1.1));
    cum.(k) <- !total
  done;
  Array.init count (fun _ ->
      let u = Random.State.float st !total in
      let rec find lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cum.(mid) < u then find (mid + 1) hi else find lo mid
      in
      rank.(find 0 (n - 1)))

type warm = {
  latencies : float list;  (** seconds, send to reply *)
  encode : float;  (** summed seconds in query_payload + encode_frame *)
  decode : float;  (** summed seconds parsing replies *)
  wall : float;
}

let warm r fd qs fills stream =
  let qs = Array.of_list qs and fills = Array.of_list fills in
  let lat = ref [] and enc = ref 0. and dec = ref 0. in
  let t0 = now () in
  Array.iteri
    (fun i qi ->
      let rid = Printf.sprintf "w%d" i in
      let e0 = now () in
      let frame = Proto.encode_frame (payload ~rid qs.(qi)) in
      let s0 = now () in
      match rpc fd frame with
      | exception (Dropped | Unix.Unix_error _) ->
          Meter.attempt r false (fun () -> rid ^ ": connection dropped");
          raise Dropped
      | reply ->
          let s1 = now () in
          ignore (Sjson.parse_line reply);
          let d1 = now () in
          enc := !enc +. (s0 -. e0);
          dec := !dec +. (d1 -. s1);
          lat := (s1 -. s0) :: !lat;
          ignore
            (check_reply r ~rid reply (fun f ->
                 match fills.(qi) with
                 | Some expect when normalize f = expect -> Ok ()
                 | Some _ -> Error (rid ^ ": warm reply differs from fill reply")
                 | None -> Error (rid ^ ": its fill reply had failed"))))
    stream;
  { latencies = !lat; encode = !enc; decode = !dec; wall = now () -. t0 }

(* ------------------------------------------------------------------ *)
(* Direct calls on the store the daemon wrote, made on a copy. *)

let copy_tree src dst =
  ignore
    (Sys.command
       (Printf.sprintf "cp -r %s %s" (Filename.quote src) (Filename.quote dst)))

let store_layer r ~dir qs =
  let module Store = Vmbp_store.Store in
  let copy = Filename.concat dir "store-copy" in
  copy_tree (Filename.concat dir "store") copy;
  let wall f =
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  in
  let opens =
    List.init 3 (fun _ ->
        let s, t = wall (fun () -> Store.open_ copy) in
        Store.close s;
        t)
  in
  let s = Store.open_ copy in
  Meter.metric r "store.records" "count"
    (float_of_int (Store.stats s).Store.entries);
  Meter.metric r "store.open_ms" "ms" (1000. *. Meter.median opens);
  let lookups =
    List.map
      (fun q ->
        let c = cell_of q in
        snd
          (wall (fun () ->
               Store.lookup s ~key:(Par_runner.store_key c)
                 ~fingerprint:(Par_runner.config_fingerprint c))))
      qs
  in
  Meter.metric r "store.lookup_us" "us" (1e6 *. Meter.median lookups);
  let entries = ref [] in
  Store.iter s (fun e -> if List.length !entries < 20 then entries := e :: !entries);
  let appends = List.map (fun e -> snd (wall (fun () -> Store.append s e))) !entries in
  Meter.metric r "store.append_ms" "ms" (1000. *. Meter.median appends);
  Store.close s;
  let _, scrub = wall (fun () -> Store.scrub copy) in
  Meter.metric r "store.scrub_ms" "ms" (1000. *. scrub)

(* ------------------------------------------------------------------ *)
(* One serve workload run. *)

(* [keep] selects which of the daemon's own metrics a traced session
   reports. *)
let run ?(keep = fun _ -> true) ~seed ~warm_requests ~smoke ~trace_out
    ~setup_only ~refs ~work r =
  let traced = trace_out <> None in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let qs = queries ~smoke in
  let dir = Filename.concat work "serve" in
  remove_tree dir;
  Unix.mkdir dir 0o755;
  let pid, fd, stats = spawn ~dir ~trace_out in
  let seen = ref [] in
  let attempted0 = r.Meter.attempted and failed0 = r.Meter.failed in
  match
    let fills = fill r ~refs fd qs seen in
    let setup_s = Meter.proc_cpu pid in
    Meter.metric r "setup_s" "s" setup_s;
    if not setup_only then begin
      let stream = zipf_stream ~seed ~n:(List.length qs) ~count:warm_requests in
      let c0 = Meter.proc_cpu pid in
      let w = warm r fd qs fills stream in
      let cpu_s = Meter.proc_cpu pid -. c0 in
      let n = float_of_int warm_requests in
      let ms q = 1000. *. Meter.quantile q w.latencies in
      Meter.metric r "cpu_s" "s" cpu_s;
      Meter.metric r "peak_rss_mb" "MB" (Meter.peak_rss_mb ~pid ());
      Meter.metric r "cpu_us_per_req" "us" (cpu_s *. 1e6 /. n);
      Meter.metric r "p50_ms" "ms" (ms 0.5);
      Meter.metric r "service.p90_ms" "ms" (ms 0.9);
      Meter.metric r "service.p99_ms" "ms" (ms 0.99);
      Meter.metric r "service.wall_rps" "1/s" (n /. w.wall);
      Meter.metric r "protocol.encode_us" "us" (1e6 *. w.encode /. n);
      Meter.metric r "protocol.decode_us" "us" (1e6 *. w.decode /. n)
    end
  with
  | () ->
      shutdown pid fd;
      Meter.info r "outputs" (Refs.digest !seen);
      if traced then begin
        read_stats stats ~keep r;
        store_layer r ~dir qs
      end;
      Meter.metric r "service.requests" "count"
        (float_of_int (r.Meter.attempted - attempted0));
      Meter.metric r "service.failed" "count"
        (float_of_int (r.Meter.failed - failed0));
      Meter.metric r "service.rid_mismatch" "count"
        (float_of_int !rid_mismatches)
  | exception (Dropped | Unix.Unix_error _ as e) ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Meter.attempt r false (fun () -> "serve session aborted: " ^ Printexc.to_string e)
