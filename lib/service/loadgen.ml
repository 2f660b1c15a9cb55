module P = Protocol

type config = {
  socket : string;
  clients : int;
  requests : int;
  seed : int;
  zipf : float;
  scale : int;
  json_out : string option;
}

let default_config ~socket =
  {
    socket;
    clients = 4;
    requests = 1000;
    seed = 1;
    zipf = 1.1;
    scale = 1;
    json_out = None;
  }

(* Deterministic request ids, one per planned request: they tie the
   server's spans to this run ([--trace-out] on the server side shows
   one tree per rid) and let the client verify every reply echoes the
   id of the request it answers. *)
let rid_for cfg ~index ~n = Printf.sprintf "l%d-c%d-r%d" cfg.seed index n

(* ------------------------------------------------------------------ *)
(* The query universe and its zipf CDF *)

let techniques () =
  let all =
    (Vmbp_core.Technique.switch :: Vmbp_core.Technique.paper_gforth_variants)
    @ [
        Vmbp_core.Technique.with_static_across_bb ();
        Vmbp_core.Technique.subroutine;
      ]
  in
  (* Dedupe by name: the paper variant list may already carry some. *)
  let seen = Hashtbl.create 16 in
  List.filter
    (fun t ->
      let n = Vmbp_core.Technique.name t in
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.add seen n ();
        true
      end)
    all

let universe () =
  List.concat_map
    (fun (w : Vmbp_workloads.t) ->
      List.concat_map
        (fun t ->
          List.map
            (fun (cpu : Vmbp_machine.Cpu_model.t) ->
              ( Vmbp_workloads.vm_name w.Vmbp_workloads.vm,
                w.Vmbp_workloads.name,
                Vmbp_core.Technique.name t,
                cpu.Vmbp_machine.Cpu_model.name ))
            Vmbp_machine.Cpu_model.all)
        (techniques ()))
    Vmbp_workloads.all

(* Cumulative zipf weights, P(i) proportional to 1/(i+1)^s. *)
let zipf_cdf s n =
  let c = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) s);
    c.(i) <- !acc
  done;
  let total = !acc in
  Array.map (fun x -> x /. total) c

let pick cdf u =
  let n = Array.length cdf in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then go (mid + 1) hi else go lo mid
  in
  go 0 (n - 1)

(* The pure, seeded pick sequence: exactly the (vm, workload, technique,
   cpu) tuples client [index] will request, in order.  Each client draws
   its own splitmix64 stream, seeded from [seed + index], so runs are
   reproducible at any [clients] count.  [client_loop] consumes this
   list, so a test asserting two calls with the same seed are equal is
   asserting the wire behavior, not a parallel reimplementation. *)
let plan_picks cdf universe ~seed ~index ~count =
  let s = Vmbp_sim.Splitmix.make (Int64.of_int (seed + index)) in
  let acc = ref [] in
  for _ = 1 to count do
    acc := universe.(pick cdf (Vmbp_sim.Splitmix.float s)) :: !acc
  done;
  List.rev !acc

let query_plan cfg ~index ~count =
  let universe = Array.of_list (universe ()) in
  let cdf = zipf_cdf (Float.max 0. cfg.zipf) (Array.length universe) in
  plan_picks cdf universe ~seed:cfg.seed ~index ~count

(* ------------------------------------------------------------------ *)
(* Clients *)

let bounds = [| 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.; 10. |]
let h_all = Vmbp_obs.Registry.histogram ~bounds "loadgen.latency_seconds"
let h_hit = Vmbp_obs.Registry.histogram ~bounds "loadgen.hit_latency_seconds"
let status_counter st = Vmbp_obs.Registry.counter ("loadgen.status." ^ st)

let client_loop cfg cdf universe index count =
  let picks = plan_picks cdf universe ~seed:cfg.seed ~index ~count in
  let fd = ref (P.connect cfg.socket) in
  let reconnect () =
    (try Unix.close !fd with Unix.Unix_error _ -> ());
    let rec go tries =
      match P.connect cfg.socket with
      | fd' -> fd := fd'
      | exception Unix.Unix_error _ when tries > 0 ->
          Unix.sleepf 0.05;
          go (tries - 1)
    in
    go 100
  in
  List.iteri (fun n (vm, workload, technique, cpu) ->
    let rid = rid_for cfg ~index ~n in
    let payload =
      P.query_payload ~vm ~workload ~technique ~cpu ~scale:cfg.scale ~rid ()
    in
    let t0 = Vmbp_sim.Env.now () in
    match
      P.write_frame !fd payload;
      P.read_frame !fd
    with
    | Some reply ->
        let t1 = Vmbp_sim.Env.now () in
        let dt = t1 -. t0 in
        Vmbp_obs.Registry.observe h_all dt;
        let fields =
          try Vmbp_store.Sjson.parse_line reply
          with Vmbp_store.Sjson.Bad -> []
        in
        let status =
          Option.value ~default:"unparseable"
            (Vmbp_store.Sjson.str_opt fields "status")
        in
        Vmbp_obs.Registry.add (status_counter status) 1;
        (* A reply that echoes the wrong rid answered some other request
           (a framing or attribution bug worth counting loudly). *)
        (match Vmbp_store.Sjson.str_opt fields "rid" with
        | Some r when r <> rid ->
            Vmbp_obs.Registry.add (status_counter "rid-mismatch") 1
        | _ -> ());
        Vmbp_obs.Span.interval ~trace:rid
          ~args:[ ("status", status); ("verb", "query") ]
          ~name:"request" t0 t1;
        if Vmbp_store.Sjson.str_opt fields "source" = Some "store" then
          Vmbp_obs.Registry.observe h_hit dt
    | None ->
        (* Clean EOF: the server hung up (conn-drop chaos or restart). *)
        Vmbp_obs.Registry.add (status_counter "conn-drop") 1;
        reconnect ()
    | exception
        ( End_of_file
        | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ECONNREFUSED | Unix.ENOENT), _, _)
          ) ->
        Vmbp_obs.Registry.add (status_counter "conn-drop") 1;
        reconnect ())
    picks;
  try Unix.close !fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Report *)

let quantile_line h =
  let _, _, sum, n = Vmbp_obs.Registry.histogram_snapshot h in
  if n = 0 then "  (no samples)"
  else
    Printf.sprintf
      "  n %d  mean %.4fs  p50 %.4fs  p90 %.4fs  p99 %.4fs"
      n
      (sum /. float_of_int n)
      (Vmbp_obs.Registry.histogram_quantile h 0.5)
      (Vmbp_obs.Registry.histogram_quantile h 0.9)
      (Vmbp_obs.Registry.histogram_quantile h 0.99)

let statuses () =
  let prefix = "loadgen.status." in
  let n = String.length prefix in
  List.filter_map
    (fun name ->
      if String.starts_with ~prefix name then
        Some
          ( String.sub name n (String.length name - n),
            Vmbp_obs.Registry.count name )
      else None)
    (Vmbp_obs.Registry.names ())
  |> List.sort compare

(* The machine-readable run summary (schema vmbp-loadgen/1): everything
   the human report prints, as one JSON document for CI gates. *)
let json_summary cfg ~elapsed ~universe_size =
  let b = Buffer.create 512 in
  let jf = Vmbp_obs.Json.float in
  let hist name h =
    let _, _, sum, n = Vmbp_obs.Registry.histogram_snapshot h in
    let q p = Vmbp_obs.Registry.histogram_quantile h p in
    Buffer.add_string b
      (Printf.sprintf
         "\"%s\":{\"n\":%d,\"mean\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s}"
         name n
         (jf (if n = 0 then Float.nan else sum /. float_of_int n))
         (jf (q 0.5)) (jf (q 0.9)) (jf (q 0.99)))
  in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":\"vmbp-loadgen/1\",\"requests\":%d,\"clients\":%d,\
        \"seed\":%d,\"zipf\":%s,\"scale\":%d,\"universe\":%d,\
        \"elapsed_seconds\":%s,\"rps\":%s,\"statuses\":{"
       cfg.requests (max 1 cfg.clients) cfg.seed (jf cfg.zipf) cfg.scale
       universe_size (jf elapsed)
       (jf (float_of_int cfg.requests /. Float.max 1e-9 elapsed)));
  List.iteri
    (fun i (st, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":%d" (Vmbp_store.Sjson.escape st) v))
    (statuses ());
  Buffer.add_string b "},\"latency\":{";
  hist "all" h_all;
  Buffer.add_char b ',';
  hist "hits" h_hit;
  Buffer.add_string b "}}";
  Buffer.contents b

let run cfg =
  let universe = Array.of_list (universe ()) in
  let cdf = zipf_cdf (Float.max 0. cfg.zipf) (Array.length universe) in
  let clients = max 1 cfg.clients in
  let per = cfg.requests / clients in
  let extra = cfg.requests mod clients in
  let t0 = Vmbp_sim.Env.now () in
  let domains =
    List.init clients (fun i ->
        let count = per + if i < extra then 1 else 0 in
        Domain.spawn (fun () -> client_loop cfg cdf universe i count))
  in
  List.iter Domain.join domains;
  let elapsed = Vmbp_sim.Env.now () -. t0 in
  Printf.printf "loadgen: %d requests, %d clients, %.2fs (%.1f req/s)\n"
    cfg.requests clients elapsed
    (float_of_int cfg.requests /. Float.max 1e-9 elapsed);
  Printf.printf "zipf s=%g over %d configurations, scale %d\n" cfg.zipf
    (Array.length universe) cfg.scale;
  Printf.printf "statuses:";
  List.iter (fun (st, v) -> Printf.printf " %s=%d" st v) (statuses ());
  print_newline ();
  Printf.printf "latency (all):\n%s\n" (quantile_line h_all);
  Printf.printf "latency (store hits):\n%s\n" (quantile_line h_hit);
  match cfg.json_out with
  | None -> ()
  | Some file ->
      let doc =
        json_summary cfg ~elapsed ~universe_size:(Array.length universe)
      in
      let oc = open_out file in
      output_string oc doc;
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "wrote loadgen summary to %s\n" file
